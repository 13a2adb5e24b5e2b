"""Elementwise activations and their derivatives (exact erf-based GELU).

They keep the input's dtype: float32 in, float32 out.
"""

from __future__ import annotations

import math

import numpy as np

from ._scipy import compiled_scipy

erf = compiled_scipy("special", "_special_ufuncs", "erf")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def relu(x):
    return np.maximum(x, 0.0)


def relu_grad(x):
    return (x > 0.0).astype(x.dtype)


def gelu_cdf(x, out=None):
    """Standard normal cdf Phi(x), written into `out` when given;
    gelu(x) = x * Phi(x)."""
    out = np.multiply(x, _INV_SQRT2, out=out)
    erf(out, out=out)
    np.add(1.0, out, out=out)
    return np.multiply(0.5, out, out=out)


def gelu(x):
    return x * gelu_cdf(x)


def gelu_grad(x, cdf=None):
    """d gelu / dx; `cdf` is gelu_cdf(x) when the caller already has it."""
    if cdf is None:
        cdf = gelu_cdf(x)
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def identity(x):
    return x


def identity_grad(x):
    return np.ones_like(x)


ACTIVATIONS = {
    "relu": (relu, relu_grad),
    "gelu": (gelu, gelu_grad),
    "identity": (identity, identity_grad),
}
