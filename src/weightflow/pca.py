"""Linear dimensionality reduction over population weight matrices.

Two fitting routes share one model type and one centered float64 copy
of the data, made straight from the data's own values (a float32
population is not cast to a float64 copy first): exact SVD of that copy,
and the dual/Gram-matrix route that eigendecomposes its n x n Gram matrix.
Eigenvalues are squared singular values of the centered data matrix (equal
to Gram eigenvalues), not variance-normalized. Accumulation is float64
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint_io import load_container, save_container
from .errors import ArgumentError, ShapeError
from .rng import make_rng

PCA_MAGIC = b"DWFP"
PCA_VERSION = 2

RSVD_POWER_ITERS = 5
RSVD_OVERSAMPLE = 10


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray         # (d,)
    components: np.ndarray   # (d, k), orthonormal columns
    eigenvalues: np.ndarray  # (k,), descending, >= 0
    n_samples: int
    # The sum of every eigenvalue of the fit data, kept or not: set by a fit,
    # not saved, so None for a loaded model.
    total: float | None = None

    @property
    def latent_dim(self) -> int:
        return self.components.shape[1]

    @property
    def input_dim(self) -> int:
        return self.mean.shape[0]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Make each component's largest-magnitude entry positive."""
    if components.shape[1] == 0:
        return components
    idx = np.abs(components).argmax(axis=0)
    signs = np.sign(components[idx, np.arange(components.shape[1])])
    signs[signs == 0] = 1.0
    return components * signs


def default_latent_dim(n_samples: int) -> int:
    """Rank bound: at most n-1 meaningful directions, capped at 99."""
    return min(n_samples - 1, 99)


def _centered(x, k: int):
    """(mean, x - mean) of a 2-D sample matrix in float64, the mean summed
    over rows in order; ArgumentError unless 0 <= k <= min(n - 1, d).
    Both cast x's values as they read them, which is exact, so a float32 x
    gives the bits of its float64 copy without that copy."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ArgumentError("x must be a 2-D sample matrix")
    n, d = x.shape
    if not 0 <= k <= min(n - 1, d):
        raise ArgumentError(f"k={k} out of range for n={n}, d={d}")
    mean = x.sum(axis=0, dtype=np.float64) / n
    return mean, np.subtract(x, mean, dtype=np.float64)


def fit_standard(x: np.ndarray, k: int) -> PcaModel:
    """Exact PCA via SVD of the centered sample matrix."""
    mean, centered = _centered(x, k)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    comps = _fix_signs(vt[:k].T)
    return PcaModel(mean=mean, components=comps, eigenvalues=(s[:k] ** 2),
                    n_samples=centered.shape[0], total=float((s ** 2).sum()))


def _randomized_eigh(g: np.ndarray, k: int, seed: int = 0):
    """Top-k eigenpairs of a symmetric PSD matrix via randomized subspace
    iteration (fixed 5 power iterations, oversampling 10, seeded Gaussian)."""
    n = g.shape[0]
    p = min(n, k + RSVD_OVERSAMPLE)
    rng = make_rng(seed, "svd")
    q, _ = np.linalg.qr(g @ rng.standard_normal((n, p)))
    for _ in range(RSVD_POWER_ITERS):
        q, _ = np.linalg.qr(g @ q)
    small = q.T @ g @ q
    small = 0.5 * (small + small.T)
    evals, evecs = np.linalg.eigh(small)
    order = np.argsort(evals)[::-1][:k]
    return evals[order], q @ evecs[:, order]


def fit_dual(x: np.ndarray, k: int, exact_eigen: bool = False,
             seed: int = 0) -> PcaModel:
    """Gram-matrix PCA of an (n, d) sample matrix: eigendecomposition
    (exact or randomized) of the n x n Gram matrix of the centered rows,
    then back-projection onto the rows, normalized to unit length."""
    x = np.asarray(x)
    if x.ndim == 2 and x.shape[0] < 2:
        raise ArgumentError("need at least 2 rows")
    mean, centered = _centered(x, k)
    gram = centered @ centered.T
    if exact_eigen:
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1][:k]
        evals, evecs = evals[order], evecs[:, order]
    else:
        evals, evecs = _randomized_eigh(gram, k, seed=seed)
    evals = np.clip(evals, 0.0, None)
    comps = centered.T @ evecs
    norms = np.linalg.norm(comps, axis=0)
    norms[norms == 0] = 1.0
    comps /= norms
    return PcaModel(mean=mean, components=_fix_signs(comps), eigenvalues=evals,
                    n_samples=centered.shape[0], total=float(np.trace(gram)))


def explained_variance_ratio(model: PcaModel) -> float:
    """The share of its fit data's variance, centered on the model's mean,
    that a fitted model's eigenvalues keep (0 when the data has none).
    ArgumentError for a loaded model, which does not hold that total."""
    if model.total is None:
        raise ArgumentError("only a fitted model holds its data's total variance")
    return float(model.eigenvalues.sum()) / model.total if model.total > 0 else 0.0


def transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project onto the latent space: P^T (x - mean). Accepts 1- or 2-D x;
    a float32 x is centered into float64 as it is read, with the bits of
    its float64 copy."""
    x = np.asarray(x)
    if x.shape[-1] != model.input_dim:
        raise ShapeError(f"x has dim {x.shape[-1]}, model expects {model.input_dim}")
    return np.subtract(x, model.mean, dtype=np.float64) @ model.components


def inverse_transform(model: PcaModel, z: np.ndarray) -> np.ndarray:
    """Back to input space: P z + mean, the mean added in place, so the
    float64 result is the one whole array it holds."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != model.latent_dim:
        raise ShapeError(f"z has dim {z.shape[-1]}, model expects {model.latent_dim}")
    out = z @ model.components.T
    out += model.mean
    return out


def save_pca(model: PcaModel, path) -> None:
    """DWFP container (see `checkpoint_io`). Header: `n_samples`,
    `input_dim`, `latent_dim`. Arrays, float64: the mean, the components
    (column-major), the eigenvalues."""
    header = [("n_samples", model.n_samples), ("input_dim", model.input_dim),
              ("latent_dim", model.latent_dim)]
    arrays = [(model.mean, "<f8"), (model.components.T, "<f8"),
              (model.eigenvalues, "<f8")]
    save_container(path, PCA_MAGIC, PCA_VERSION, header, arrays)


def _build_pca(pairs, read) -> PcaModel:
    n, d, k = (int(pairs[key]) for key in ("n_samples", "input_dim", "latent_dim"))
    return PcaModel(mean=read("mean", "<f8", d),
                    components=read("components", "<f8", k, d).T.copy(),
                    eigenvalues=read("eigenvalues", "<f8", k), n_samples=n)


def load_pca(path) -> PcaModel:
    return load_container(path, PCA_MAGIC, PCA_VERSION, _build_pca, "header")
