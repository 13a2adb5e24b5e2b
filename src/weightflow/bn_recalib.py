"""Exact pooled recalibration of batch-norm running statistics.

Running mean/variance are recomputed over a calibration set with the
incremental pooled (parallel-variance) update: momentum is disabled, each
mini-batch contributes its per-feature mean and population variance, and a
cross term corrects for the shift between the pooled and batch means. The
result equals single-pass full-dataset statistics regardless of how the
stream is partitioned.

BN layers are recalibrated in forward order, each one seeing activations
computed with the already-finalized statistics of earlier layers, which
keeps the per-layer result exactly partition-independent. The float64
forward pass runs layer by layer over all calibration batches, so each
affine map is applied once per batch.

`recalibrate` does this for every member of a `nn_core.Population`, with
each member's statistics pooled along the batch axis of (N, B, d)
activation stacks and written in place into the population's own columns;
every member gets the same bits as on its own. One layer's float64
activations over the whole calibration set are held at a time, so a caller
with many members passes them in blocks (`pop[block]` for each block of
`nn_core.member_blocks`), each sized to hold at most
`nn_core.MEMBER_BLOCK_BYTES` of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .activations import ACTIVATIONS
from .errors import ArgumentError
from .nn_core import BN_EPS, BN_MOMENTUM, Population, _batch_sum


@dataclass
class PooledStats:
    """Per-feature pooled mean / population variance accumulator (float64)."""

    mean: np.ndarray
    var: np.ndarray
    count: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "PooledStats":
        return cls(np.zeros(dim), np.ones(dim), 0)

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray, n_k: int) -> None:
        """Fold one batch's statistics into the pooled accumulator."""
        if n_k <= 0:
            raise ArgumentError("batch count must be positive")
        if self.count == 0:
            self.mean = np.asarray(batch_mean, dtype=np.float64).copy()
            self.var = np.asarray(batch_var, dtype=np.float64).copy()
            self.count = n_k
            return
        n_prev = self.count
        n_new = n_prev + n_k
        cross = (n_prev * n_k / n_new) * (self.mean - batch_mean) ** 2
        self.var = (n_prev * self.var + n_k * batch_var + cross) / n_new
        self.mean = (n_prev * self.mean + n_k * batch_mean) / n_new
        self.count = n_new

    def update_from_batch(self, batch: np.ndarray, axis: int = 0) -> None:
        """Fold in the samples of `batch` along `axis`."""
        batch = np.asarray(batch, dtype=np.float64)
        self.update(batch.mean(axis=axis), batch.var(axis=axis), batch.shape[axis])


def recalibrate(pop: Population, data, batch_size: int = 64,
                calib_fraction: float = 1.0) -> None:
    """Recompute, in place, the BN running statistics of every member of
    `pop` over the first `calib_fraction` of `data`.

    Weights, gamma, and beta are untouched; only running mean/var/count
    change. Momentum-based EMA behavior (0.1) resumes on future train-mode
    passes.

    Each batch's per-member mean and variance take `ndarray.mean` and
    `ndarray.var`'s own steps over the batch axis (sum, divide; centre,
    square, sum, divide), with the sums from `nn_core._batch_sum`, which
    adds the rows in numpy's order but off its slow reduce loop; so the
    statistics keep numpy's bits. Each BN layer's sqrt(var + eps) is taken
    once, not once per batch.
    """
    if data.features.shape[0] == 0:
        raise ArgumentError("empty calibration dataset")
    if batch_size < 1:
        raise ArgumentError("batch_size must be >= 1")
    if not 0.0 < calib_fraction <= 1.0:
        raise ArgumentError("calib_fraction must be in (0, 1]")
    if not pop.bn:
        warnings.warn("population has no BN layers; recalibration is a no-op")
        return
    n_use = max(1, int(round(calib_fraction * data.features.shape[0])))
    features = data.features[:n_use]
    arch = pop.arch
    act, _ = ACTIVATIONS[arch.activation]
    # Layer-0 batches are (1, B, d) views of the features, broadcast over
    # the members; batches are replaced in place, so one layer's float64
    # activations (N, B, d) are held at a time.
    zs = [features[None, start:start + batch_size]
          for start in range(0, n_use, batch_size)]
    for l in range(max(pop.bn) + 1):
        w = pop.weights[l].swapaxes(-1, -2).astype(np.float64)
        b = pop.biases[l].astype(np.float64)
        for i, z in enumerate(zs):
            zs[i] = z.astype(np.float64, copy=False) @ w + b
        views = pop.bn_views.get(l)
        if views is not None:
            gamma, beta, running_mean, running_var, count = views
            stats = PooledStats.zeros(arch.layer_dims[l + 1])
            for a in zs:
                n_k = a.shape[1]
                mean = _batch_sum(a) / n_k
                centred = a - mean
                stats.update(mean[:, 0], _batch_sum(centred * centred)[:, 0] / n_k, n_k)
            running_mean[...] = stats.mean.reshape(gamma.shape)
            running_var[...] = stats.var.reshape(gamma.shape)
            count[...] = stats.count
            std = np.sqrt(running_var + BN_EPS)
        for i, a in enumerate(zs):
            if views is not None:
                a = gamma * (a - running_mean) / std + beta
            zs[i] = act(a)
    assert BN_MOMENTUM == 0.1  # EMA resumes at the documented momentum
