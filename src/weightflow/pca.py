"""Linear dimensionality reduction over population weight matrices.

Three fitting routes share one model type: exact SVD of the centered data,
single-pass batched (incremental) updates, and the dual/Gram-matrix route
that never holds more than a micro-batch of rows next to the n x n Gram
matrix. Eigenvalues are squared singular values of the centered data matrix
(equal to Gram eigenvalues), not variance-normalized. Accumulation is
float64 throughout.
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

    @property
    def latent_dim(self) -> int:
        return self.components.shape[1]

    @property
    def input_dim(self) -> int:
        return self.mean.shape[0]

    def explained_variance_ratio(self) -> np.ndarray:
        total = self.eigenvalues.sum()
        if total == 0:
            return np.zeros_like(self.eigenvalues)
        return self.eigenvalues / total


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Make each component's largest-magnitude entry positive."""
    if components.shape[1] == 0:
        return components
    idx = np.abs(components).argmax(axis=0)
    signs = np.sign(components[idx, np.arange(components.shape[1])])
    signs[signs == 0] = 1.0
    return components * signs


def default_latent_dim(n_samples: int, cap: int = 99) -> int:
    """Rank bound: at most n-1 meaningful directions, capped at 99."""
    return min(n_samples - 1, cap)


def fit_standard(x: np.ndarray, k: int) -> PcaModel:
    """Exact PCA via SVD of the centered sample matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ArgumentError("x must be a 2-D sample matrix")
    n, d = x.shape
    if not 0 <= k <= min(n - 1, d):
        raise ArgumentError(f"k={k} out of range for n={n}, d={d}")
    mean = x.mean(axis=0)
    centered = x - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    comps = _fix_signs(vt[:k].T)
    return PcaModel(mean=mean, components=comps,
                    eigenvalues=(s[:k] ** 2), n_samples=n)


def fit_incremental(batches, k: int) -> PcaModel:
    """Single-pass PCA over a stream of row blocks.

    Maintains the running mean and a rank-k factorization; each batch update
    stacks the current scaled basis, the centered batch, and a
    mean-correction row, then re-truncates via SVD.
    """
    mean = None
    n_seen = 0
    sv = None   # current singular values
    basis = None  # (r, d) rows = components scaled implicitly via sv
    for batch in batches:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[0] == 0:
            raise ArgumentError("each batch must be a nonempty 2-D block")
        m = batch.shape[0]
        bmean = batch.mean(axis=0)
        if mean is None:
            mean = bmean
            n_seen = m
            stack = batch - bmean
        else:
            new_n = n_seen + m
            corr = np.sqrt(n_seen * m / new_n) * (mean - bmean)
            stack = np.vstack([sv[:, None] * basis, batch - bmean, corr[None, :]])
            mean = (n_seen * mean + m * bmean) / new_n
            n_seen = new_n
        _, s, vt = np.linalg.svd(stack, full_matrices=False)
        r = min(len(s), n_seen - 1) if n_seen > 1 else len(s)
        sv, basis = s[:r], vt[:r]
    if mean is None:
        raise ArgumentError("empty batch stream")
    if n_seen < 2 or not 0 <= k <= n_seen - 1:
        raise ArgumentError(f"k={k} out of range for n={n_seen}")
    comps = _fix_signs(basis[:k].T)
    eig = np.zeros(k)
    eig[:min(k, len(sv))] = sv[:k] ** 2
    return PcaModel(mean=mean, components=comps, eigenvalues=eig, n_samples=n_seen)


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


def fit_dual(x: np.ndarray, k: int, micro_batch: int = 16,
             exact_eigen: bool = False, seed: int = 0) -> PcaModel:
    """Gram-matrix PCA of an (n, d) sample matrix in four passes: mean,
    Gram blocks, eigendecomposition (exact or randomized), unit-norm
    back-projection.

    At most `micro_batch` centered rows are materialized at once besides
    the n x n Gram matrix.
    """
    if micro_batch < 1:
        raise ArgumentError("micro_batch must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ArgumentError("x must be a 2-D sample matrix")

    # pass 1: mean (x.sum adds the rows in order)
    n = x.shape[0]
    if n < 2:
        raise ArgumentError("need at least 2 rows")
    if not 0 <= k <= n - 1:
        raise ArgumentError(f"k={k} exceeds the rank bound n-1={n - 1}")
    mean = x.sum(axis=0) / n

    def centered_blocks():
        for start in range(0, n, micro_batch):
            yield start, x[start:start + micro_batch] - mean

    # pass 2: Gram matrix, block by block
    gram = np.empty((n, n))
    for i0, bi in centered_blocks():
        for j0, bj in centered_blocks():
            if j0 < i0:
                continue
            block = bi @ bj.T
            gram[i0:i0 + len(bi), j0:j0 + len(bj)] = block
            gram[j0:j0 + len(bj), i0:i0 + len(bi)] = block.T

    # pass 3: eigendecomposition of G
    if exact_eigen:
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1][:k]
        evals, evecs = evals[order], evecs[:, order]
    else:
        evals, evecs = _randomized_eigh(gram, k, seed=seed)
    evals = np.clip(evals, 0.0, None)

    # pass 4: back-projection, normalized to unit length
    comps = np.zeros((mean.shape[0], k))
    for i0, bi in centered_blocks():
        comps += bi.T @ evecs[i0:i0 + len(bi), :]
    norms = np.linalg.norm(comps, axis=0)
    norms[norms == 0] = 1.0
    comps /= norms
    return PcaModel(mean=mean, components=_fix_signs(comps),
                    eigenvalues=evals, n_samples=n)


def transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project onto the latent space: P^T (x - mean). Accepts 1- or 2-D x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.input_dim:
        raise ShapeError(f"x has dim {x.shape[-1]}, model expects {model.input_dim}")
    return (x - model.mean) @ model.components


def inverse_transform(model: PcaModel, z: np.ndarray) -> np.ndarray:
    """Back to input space: P z + mean."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != model.latent_dim:
        raise ShapeError(f"z has dim {z.shape[-1]}, model expects {model.latent_dim}")
    return z @ model.components.T + model.mean


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
