import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightflow.errors import ArgumentError, DataError, ShapeError
from weightflow.pca import (PcaModel, default_latent_dim, explained_variance_ratio,
                            fit_dual, fit_standard, inverse_transform,
                            load_pca, save_pca, transform)


def match_up_to_sign(a, b, atol):
    """Columns agree up to a global sign each."""
    assert a.shape == b.shape
    for j in range(a.shape[1]):
        assert (np.allclose(a[:, j], b[:, j], atol=atol)
                or np.allclose(a[:, j], -b[:, j], atol=atol))


class TestStandard:
    def test_two_point_hand_case(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model = fit_standard(x, 1)
        assert abs(model.eigenvalues[0] - 2.0) < 1e-12
        assert np.allclose(np.abs(model.components[:, 0]), [1.0, 0.0])

    def test_k_zero_is_mean_model(self, rng):
        x = rng.normal(size=(5, 3))
        model = fit_standard(x, 0)
        z = transform(model, x)
        assert z.shape == (5, 0)
        assert np.allclose(inverse_transform(model, z), np.tile(model.mean, (5, 1)))

    def test_duplicate_rows_zero_eigenvalues(self):
        x = np.tile(np.array([[3.0, 1.0, 2.0]]), (6, 1))
        model = fit_standard(x, 2)
        assert np.allclose(model.eigenvalues, 0.0, atol=1e-20)

    def test_orthonormal_components(self, rng):
        x = rng.normal(size=(20, 30))
        model = fit_standard(x, 10)
        gram = model.components.T @ model.components
        assert np.allclose(gram, np.eye(10), atol=1e-10)

    def test_k_out_of_range(self, rng):
        with pytest.raises(ArgumentError):
            fit_standard(rng.normal(size=(5, 3)), 5)

    @pytest.mark.parametrize("n,d", [(25, 531), (50, 67), (12, 4)])
    def test_bytes_equal_an_inline_svd(self, rng, tmp_path, n, d):
        # The bits of the standard fit are those of a plain SVD of
        # x - x.mean(axis=0), each component's largest entry made positive.
        x, k = rng.normal(size=(n, d)), min(n - 1, d) // 2
        centered = x - x.mean(axis=0)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        comps = vt[:k].T
        comps = comps * np.sign(comps[np.abs(comps).argmax(axis=0), np.arange(k)])
        inline = PcaModel(mean=x.mean(axis=0), components=comps,
                          eigenvalues=s[:k] ** 2, n_samples=n)
        save_pca(fit_standard(x, k), tmp_path / "fit.dwfp")
        save_pca(inline, tmp_path / "inline.dwfp")
        assert (tmp_path / "fit.dwfp").read_bytes() == (tmp_path / "inline.dwfp").read_bytes()


class TestDual:
    def test_exact_matches_standard(self, rng):
        for _ in range(5):
            x = rng.normal(size=(20, 500))
            a = fit_standard(x, 10)
            b = fit_dual(x, 10, exact_eigen=True)
            assert np.allclose(a.eigenvalues, b.eigenvalues, rtol=1e-8)
            match_up_to_sign(a.components, b.components, 1e-6)

    def test_randomized_close(self, rng):
        x = rng.normal(size=(20, 500))
        a = fit_standard(x, 10)
        b = fit_dual(x, 10, exact_eigen=False, seed=0)
        assert np.allclose(a.eigenvalues, b.eigenvalues, rtol=1e-3)

    def test_two_point_hand_case(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model = fit_dual(x, 1, exact_eigen=True)
        assert abs(model.eigenvalues[0] - 2.0) < 1e-10

    @pytest.mark.parametrize("n,d", [(25, 531), (50, 67), (400, 531)])
    def test_mean_equals_row_loop(self, rng, n, d):
        # Both fits share one centring, so both means are this loop's bits.
        x = rng.normal(size=(n, d))
        mean = x[0].copy()
        for row in x[1:]:
            mean = mean + row
        mean /= n
        assert fit_dual(x, 1, exact_eigen=True).mean.tobytes() == mean.tobytes()
        assert fit_standard(x, 1).mean.tobytes() == mean.tobytes()

    def test_seeded_randomized_deterministic(self, rng):
        x = rng.normal(size=(15, 60))
        a = fit_dual(x, 5, seed=3)
        b = fit_dual(x, 5, seed=3)
        assert np.array_equal(a.components, b.components)

    @given(seed=st.integers(0, 500), n=st.integers(4, 12))
    @settings(max_examples=20, deadline=None)
    def test_gram_covariance_spectral_equality(self, seed, n):
        x = np.random.default_rng(seed).normal(size=(n, 25))
        k = n - 1
        a = fit_standard(x, k)
        b = fit_dual(x, k, exact_eigen=True)
        scale = max(a.eigenvalues.max(), 1e-12)
        assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-8 * scale


@pytest.mark.parametrize("fit", [fit_standard, fit_dual], ids=["standard", "dual"])
def test_k_above_input_dim_rejected(rng, fit):
    # Two dimensions hold at most two orthonormal components.
    with pytest.raises(ArgumentError, match=r"^k=5 out of range for n=10, d=2$"):
        fit(rng.normal(size=(10, 2)), 5)
    # At k = min(n - 1, d), bound by d or by n, there are k of each.
    for n, d in [(10, 2), (3, 10)]:
        model = fit(rng.normal(size=(n, d)), min(n - 1, d))
        assert model.components.shape == (d, min(n - 1, d))
        assert model.eigenvalues.shape == (min(n - 1, d),)


def test_explained_variance_ratio_is_the_kept_share(rng, tmp_path):
    # s[:k]^2 / sum s^2 of the centred data, the total taken from the fit.
    x = rng.normal(size=(40, 30)) + 5.0
    centered = x - x.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    for k in (1, 5, 30):
        share = (s[:k] ** 2).sum() / (s ** 2).sum()
        for model in (fit_standard(x, k), fit_dual(x, k, exact_eigen=True)):
            assert model.total == pytest.approx(np.vdot(centered, centered), rel=1e-12)
            assert explained_variance_ratio(model) == pytest.approx(share, rel=1e-12)
    for fit in (fit_standard, fit_dual):
        assert explained_variance_ratio(fit(np.ones((4, 3)), 2)) == 0.0
    # A DWFP file holds no total, so a loaded model has no share to give.
    save_pca(fit_standard(x, 5), tmp_path / "fit.dwfp")
    with pytest.raises(ArgumentError, match="only a fitted model"):
        explained_variance_ratio(load_pca(tmp_path / "fit.dwfp"))


@given(n=st.integers(2, 40), d=st.integers(1, 80), seed=st.integers(0, 2 ** 32 - 1),
       offset=st.sampled_from([0.0, 5.0]), levels=st.sampled_from([0, 3]))
@settings(max_examples=60, deadline=None)
def test_float32_input_gives_the_bits_of_its_float64_copy(tmp_path_factory, n, d, seed,
                                                          offset, levels):
    # Both fits centre float32 rows straight into float64 and `transform`
    # centres them as it projects: every saved byte, the total and the
    # projection equal those of the float64 copy. `levels` draws ties.
    gen = np.random.default_rng(seed)
    x = (gen.integers(-levels, levels + 1, size=(n, d)) if levels
         else gen.normal(size=(n, d)) + offset).astype(np.float32)
    k = min(n - 1, d)
    out = tmp_path_factory.mktemp("fits")
    for name, fit in (("standard", fit_standard),
                      ("dual", lambda v, k: fit_dual(v, k, exact_eigen=True))):
        model, want = fit(x, k), fit(x.astype(np.float64), k)
        save_pca(model, out / f"{name}.dwfp")
        save_pca(want, out / f"{name}-f64.dwfp")
        assert (out / f"{name}.dwfp").read_bytes() == (out / f"{name}-f64.dwfp").read_bytes()
        assert model.total == want.total
        assert transform(model, x).tobytes() == transform(want, x.astype(np.float64)).tobytes()


def test_inverse_transform_adds_the_mean_in_place_with_the_same_bits(rng):
    model = fit_standard(rng.normal(size=(30, 50)), 7)
    z = rng.normal(size=(400, 7))
    for v in (z, z[0]):
        want = v @ model.components.T + model.mean
        assert inverse_transform(model, v).tobytes() == want.tobytes()


class TestTransform:
    def test_mean_maps_to_zero(self, rng):
        model = fit_standard(rng.normal(size=(10, 6)), 3)
        assert np.allclose(transform(model, model.mean), 0.0, atol=1e-12)

    def test_zero_maps_to_mean(self, rng):
        model = fit_standard(rng.normal(size=(10, 6)), 3)
        assert np.allclose(inverse_transform(model, np.zeros(3)), model.mean)

    def test_full_rank_round_trip(self, rng):
        x = rng.normal(size=(20, 500))
        model = fit_standard(x, 19)
        back = inverse_transform(model, transform(model, x))
        assert np.max(np.abs(back - x)) <= 1e-5

    def test_shape_mismatch(self, rng):
        model = fit_standard(rng.normal(size=(10, 6)), 3)
        with pytest.raises(ShapeError):
            transform(model, np.zeros(7))
        with pytest.raises(ShapeError):
            inverse_transform(model, np.zeros(4))


def reference_bytes(model, version=2):
    """A DWFP file of `model`, written value by value; version 1 has a
    binary u64 n, d, k header in place of the text header."""
    n, (d, k) = model.n_samples, model.components.shape
    if version == 1:
        blob = b"DWFP" + struct.pack("<IQQQ", 1, n, d, k)
    else:
        header = f"n_samples={n}\ninput_dim={d}\nlatent_dim={k}\n".encode()
        blob = b"DWFP" + struct.pack("<II", version, len(header)) + header
    blob += b"".join(struct.pack("<d", v) for v in model.mean)
    blob += b"".join(struct.pack("<d", model.components[i, j])
                     for j in range(k) for i in range(d))  # column-major
    return blob + b"".join(struct.pack("<d", v) for v in model.eigenvalues)


class TestSerialization:
    def test_reference_bytes(self, tmp_path, rng):
        model = fit_standard(rng.normal(size=(12, 20)), 5)
        path = tmp_path / "m.dwfp"
        save_pca(model, path)
        assert path.read_bytes() == reference_bytes(model)

    def test_version_1_rejected(self, tmp_path, rng):
        path = tmp_path / "v1.dwfp"
        path.write_bytes(reference_bytes(fit_standard(rng.normal(size=(12, 20)), 5), 1))
        with pytest.raises(DataError, match="unsupported version 1"):
            load_pca(path)

    @pytest.mark.parametrize("old,new,match", [
        ("latent_dim=5", "latent_dim=-1", "malformed header.*negative"),
        ("latent_dim=5", "latent_dim=five", "malformed header"),
        ("latent_dim=5\n", "", "malformed header"),
        ("latent_dim=5", "latent_dim 5", "malformed header"),
        ("latent_dim=5", "latent_dim=6", "truncated"),
        ("latent_dim=5", "latent_dim=4", "trailing bytes"),
    ], ids=["negative", "not-int", "missing", "no-equals", "too-wide", "too-narrow"])
    def test_bad_header(self, tmp_path, rng, old, new, match):
        blob = reference_bytes(fit_standard(rng.normal(size=(12, 20)), 5))
        length, = struct.unpack("<I", blob[8:12])
        header = blob[12:12 + length].decode().replace(old, new).encode()
        path = tmp_path / "h.dwfp"
        path.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                         + blob[12 + length:])
        with pytest.raises(DataError, match=match):
            load_pca(path)

    def test_round_trip(self, tmp_path, rng):
        model = fit_standard(rng.normal(size=(12, 20)), 5)
        path = tmp_path / "m.dwfp"
        save_pca(model, path)
        loaded = load_pca(path)
        assert np.array_equal(model.mean, loaded.mean)
        assert np.array_equal(model.components, loaded.components)
        assert np.array_equal(model.eigenvalues, loaded.eigenvalues)
        assert model.n_samples == loaded.n_samples

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bad.dwfp"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(DataError):
            load_pca(path)

    def test_damaged(self, tmp_path, rng, damage):
        path = tmp_path / "d.dwfp"
        save_pca(fit_standard(rng.normal(size=(12, 20)), 5), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError):
            load_pca(path)

    def test_deterministic_bytes(self, tmp_path, rng):
        model = fit_standard(rng.normal(size=(12, 20)), 5)
        p1, p2 = tmp_path / "a.dwfp", tmp_path / "b.dwfp"
        save_pca(model, p1)
        save_pca(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_default_latent_dim():
    assert default_latent_dim(100) == 99
    assert default_latent_dim(50) == 49
    assert default_latent_dim(500) == 99
