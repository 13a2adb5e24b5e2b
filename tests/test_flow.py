import math
import struct
import tracemalloc

import numpy as np
import pytest

from weightflow.activations import erf, gelu
from weightflow.errors import ArgumentError, DataError, IntegrationError
from weightflow.flow import (LN_EPS, FlowConfig, FlowModel, FlowWorkspace,
                             fm_loss_and_grads, flow_backward, flow_forward,
                             init_flow_model, load_flow, rk4_integrate, sample,
                             save_flow, train_flow, _dropout_masks,
                             _param_layout)
from weightflow.rng import make_rng

TINY = FlowConfig(input_dim=4, hidden_dim=8, time_embed_dim=4, dropout=0.0,
                  iterations=50, batch_size=4)


def reference_forward(model, x, t, dropout_masks=None):
    """The vector field written out with a new array per step; returns
    (v, cache) in flow_backward's cache layout."""
    p = model.params
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    h1 = t @ p["time.w1"].T + p["time.b1"]
    a1 = gelu(h1)
    t_emb = a1 @ p["time.w2"].T + p["time.b2"]
    h = np.concatenate([x, t_emb], axis=1)
    trunk_caches = []
    for i in range(len(model.config.trunk_dims)):
        pre = h @ p[f"trunk.w{i}"].T + p[f"trunk.b{i}"]
        mu = pre.mean(axis=1, keepdims=True)
        var = pre.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (pre - mu) * inv_std
        ln = p[f"trunk.ln_g{i}"] * xhat + p[f"trunk.ln_b{i}"]
        cdf = 0.5 * (1.0 + erf(ln * (1.0 / math.sqrt(2.0))))
        act = ln * cdf
        dropped = act if dropout_masks is None else act * dropout_masks[i]
        trunk_caches.append((h, xhat, inv_std, ln, cdf))
        h = dropped
    v = h @ p["out.w"].T + p["out.b"]
    return v, ((t, h1, a1), trunk_caches, h)


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
        ws = FlowWorkspace(WIDE, 9)
        assert np.array_equal(flow_forward(model, x, t, workspace=ws), ref)

    def test_train_forward_and_gradients_match_reference(self, rng):
        model = init_flow_model(WIDE, seed=4)
        x1, x0 = rng.normal(size=(9, 6)), rng.normal(0, 0.01, size=(9, 6))
        t, eps = rng.uniform(size=9), rng.normal(0, 1e-3, size=(9, 6))
        masks = _dropout_masks(WIDE, make_rng(0, "flow-dropout"),
                               FlowWorkspace(WIDE, 9, training=True))
        x_t = (1.0 - t[:, None]) * x0 + t[:, None] * x1 + eps
        v_ref, cache = reference_forward(model, x_t, t, masks)
        assert np.array_equal(flow_forward(model, x_t, t, masks), v_ref)
        diff = v_ref - (x1 - x0)
        grads_ref = flow_backward(model, cache, 2.0 * diff / diff.size, masks)
        ws = FlowWorkspace(WIDE, 9)
        for workspace in (None, ws, ws):
            loss, grads = fm_loss_and_grads(model, x1, x0, t, eps, masks,
                                            workspace=workspace)
            assert loss == float(np.mean(diff * diff))
            for name in grads_ref:
                assert np.array_equal(grads[name], grads_ref[name]), name

    def test_reused_workspace_matches_fresh(self, rng):
        model = init_flow_model(WIDE, seed=5)
        ws = FlowWorkspace(WIDE, 7)
        x = rng.normal(size=(7, 6))
        for t in (0.0, 0.35, 1.0, rng.uniform(size=7)):
            t_col = np.broadcast_to(t, 7)
            assert np.array_equal(flow_forward(model, x, t_col, workspace=ws),
                                  flow_forward(model, x, t_col))

    def test_velocities_do_not_alias(self, rng):
        model = init_flow_model(WIDE, seed=6)
        ws = FlowWorkspace(WIDE, 5)
        buffers = [ws.h0] + ws.act + ws.xhat + ws.ln + ws.cdf
        x = rng.normal(size=(5, 6))
        v1 = flow_forward(model, x, np.full(5, 0.2), workspace=ws)
        kept = v1.copy()
        v2 = flow_forward(model, x, np.full(5, 0.7), workspace=ws)
        assert not np.shares_memory(v1, v2)
        assert not any(np.shares_memory(v, buf) for v in (v1, v2) for buf in buffers)
        assert np.array_equal(v1, kept)

    def test_batch_mismatch_rejected(self, rng):
        model = init_flow_model(WIDE, seed=0)
        with pytest.raises(ArgumentError, match="workspace"):
            flow_forward(model, rng.normal(size=(4, 6)), np.zeros(4),
                         workspace=FlowWorkspace(WIDE, 5))

    def test_sample_matches_rk4_over_reference(self):
        cfg = FlowConfig(input_dim=6, hidden_dim=16, time_embed_dim=3,
                         integration_steps=7)
        model = init_flow_model(cfg, seed=7)
        x0 = make_rng(11, "sample").normal(0.0, cfg.source_std, size=(12, 6))
        ref = rk4_integrate(
            lambda x, t: reference_forward(model, x, np.full(x.shape[0], t))[0],
            x0, cfg.integration_steps)
        assert np.array_equal(sample(model, 12, seed=11), ref)

    def test_sample_peak_memory_is_about_one_workspace(self):
        cfg = FlowConfig(input_dim=24, hidden_dim=128, integration_steps=3)
        model = init_flow_model(cfg, seed=0)
        ws = FlowWorkspace(cfg, 400)
        budget = 3 * sum(buf.nbytes for buf in [ws.h0] + ws.act + ws.xhat + ws.ln + ws.cdf)
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
        for model in (init_flow_model(TINY, seed=0), trained,
                      load_flow(tmp_path / "m.dwff")):
            assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous
            assert sum(p.size for p in model.params.values()) == model.flat.size
            for p in model.params.values():
                assert np.shares_memory(p, model.flat)


    def test_wrong_buffer_size_rejected(self):
        with pytest.raises(ArgumentError):
            FlowModel(TINY, np.zeros(3))


class TestDropout:
    def test_mask_values_are_zero_or_inverse_keep(self):
        ws = FlowWorkspace(WIDE, 9, training=True)
        masks = _dropout_masks(WIDE, make_rng(0, "flow-dropout"), ws)
        assert [m.shape for m in masks] == [(9, d) for d in WIDE.trunk_dims]
        keep = 1.0 - WIDE.dropout
        for m in masks:
            assert set(np.unique(m)) <= {0.0, 1.0 / keep}

    def test_kept_fraction_within_binomial_bound(self):
        ws = FlowWorkspace(WIDE, 50, training=True)
        rng = make_rng(1, "flow-dropout")
        keep, kept, total = 1.0 - WIDE.dropout, 0, 0
        for _ in range(200):
            masks = _dropout_masks(WIDE, rng, ws)
            kept += sum(int(np.count_nonzero(m)) for m in masks)
            total += sum(m.size for m in masks)
        # Six standard deviations of a Binomial(total, keep) count.
        assert abs(kept - keep * total) <= 6.0 * math.sqrt(total * keep * (1.0 - keep))

    def test_redrawn_each_step(self):
        ws = FlowWorkspace(WIDE, 9, training=True)
        rng = make_rng(2, "flow-dropout")
        first = [m.copy() for m in _dropout_masks(WIDE, rng, ws)]
        second = _dropout_masks(WIDE, rng, ws)
        assert not all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_no_dropout_gives_none(self):
        cfg = FlowConfig(input_dim=6, hidden_dim=16, time_embed_dim=3, dropout=0.0)
        assert _dropout_masks(cfg, make_rng(0, "flow-dropout"),
                              FlowWorkspace(cfg, 4, training=True)) is None

    def test_same_seed_trains_byte_identical_flows(self):
        pop = np.random.default_rng(3).normal(size=(12, 6))
        cfg = FlowConfig(input_dim=6, hidden_dim=16, time_embed_dim=3,
                         dropout=0.3, iterations=40, batch_size=5)
        a, b = train_flow(pop, cfg, seed=2), train_flow(pop, cfg, seed=2)
        assert a.flat.tobytes() == b.flat.tobytes()
        assert a.loss_history == b.loss_history


class TestRk4:
    def test_constant_field(self):
        u = np.array([1.0, -2.0, 0.5])
        out = rk4_integrate(lambda x, t: u, np.zeros(3), steps=10)
        assert np.max(np.abs(out - u)) <= 1e-6

    def test_exponential_field(self):
        x0 = np.array([1.0, -0.5, 2.0])
        out = rk4_integrate(lambda x, t: x, x0, steps=100)
        assert np.max(np.abs(out - np.e * x0) / np.abs(np.e * x0)) <= 1e-8

    def test_zero_field(self):
        x0 = np.array([3.0, 4.0])
        assert np.array_equal(rk4_integrate(lambda x, t: np.zeros_like(x),
                                            x0, steps=5), x0)

    def test_affine_field_closed_form(self):
        # dx/dt = x + 1 -> x(1) = (x0 + 1) e - 1
        x0 = np.array([0.3])
        out = rk4_integrate(lambda x, t: x + 1.0, x0, steps=100)
        expected = (x0 + 1.0) * np.e - 1.0
        assert abs(out[0] - expected[0]) / abs(expected[0]) <= 1e-6

    def test_non_finite_field(self):
        with pytest.raises(IntegrationError, match="step"):
            rk4_integrate(lambda x, t: x * np.inf, np.ones(2), steps=3)

    def test_bad_steps(self):
        with pytest.raises(ArgumentError):
            rk4_integrate(lambda x, t: x, np.ones(2), steps=0)


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


# The DWFF header of TINY: its FlowConfig, scalars first, then the pair.
TINY_HEADER = """\
input_dim=4
hidden_dim=8
time_embed_dim=4
dropout=0.0
noise_scale=0.001
source_std=0.01
time_distribution='uniform'
iterations=50
batch_size=4
learning_rate=0.0005
weight_decay=1e-05
beta1=0.9
beta2=0.95
lr_min=1e-06
integration_steps=100
time_beta=2.0,5.0
"""


def tiny_bytes(model, version=2) -> bytes:
    """The DWFF file of a TINY model, written by hand."""
    header = TINY_HEADER.encode()
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

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.dwff"
        path.write_bytes(tiny_bytes(init_flow_model(TINY, seed=0), 1))
        with pytest.raises(DataError, match="unsupported version 1"):
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
