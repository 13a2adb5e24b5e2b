"""Recalibration of batch-norm running statistics.

A BN layer's inference statistics are the mean and variance of the
activations it normalizes (Ioffe & Szegedy, arXiv 1502.03167). So
`recalibrate` is one calibrate-mode stacked forward pass over the
calibration rows per block of `nn_core.member_blocks`: after it, each BN
layer's running mean and variance are, bit for bit, numpy's float64 `mean`
and `var` of the pre-BN activations an eval-mode `forward` computes on
those rows, and its count is their number. Every member gets the bits it
gets alone, and `pop[block]` recalibrates in place the members of a block.
"""

from __future__ import annotations

import warnings

from .errors import ArgumentError
from .nn_core import Population, _forward_cached, member_blocks


def recalibrate(pop: Population, data, calib_fraction: float = 1.0) -> None:
    """Recompute, in place, the BN running statistics of every member of
    `pop` over the first `calib_fraction` of `data`.

    Weights, gamma, and beta are untouched; only running mean/var/count
    change. Momentum-based EMA behavior (0.1) resumes on future train-mode
    passes.
    """
    if data.features.shape[0] == 0:
        raise ArgumentError("empty calibration dataset")
    if not 0.0 < calib_fraction <= 1.0:
        raise ArgumentError("calib_fraction must be in (0, 1]")
    if not pop.bn:
        warnings.warn("population has no BN layers; recalibration is a no-op")
        return
    n_use = max(1, int(round(calib_fraction * data.features.shape[0])))
    features = data.features[None, :n_use]
    for block in member_blocks(len(pop), pop.arch, n_use):
        _forward_cached(pop[block], features, "calibrate")
