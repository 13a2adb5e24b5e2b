import numpy as np
import pytest

from weightflow.errors import ArgumentError, DataError, IntegrationError
from weightflow.flow import (FlowConfig, FlowModel, fm_loss_and_grads,
                             flow_forward, init_flow_model, load_flow,
                             rk4_integrate, sample, save_flow, train_flow,
                             _param_layout)

TINY = FlowConfig(input_dim=4, hidden_dim=8, time_embed_dim=4, dropout=0.0,
                  iterations=50, batch_size=4)


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


class TestSerialization:
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
