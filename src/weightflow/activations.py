"""Elementwise activations and their derivatives.

GELU comes in two forms. The exact one, x * Phi(x) with Phi from scipy's
erf, serves `[arch] activation = gelu` networks; erf's compiled module is
loaded on the first call of `erf`, so a process that runs no exact GELU
never loads it. The tanh form of Hendrycks and Gimpel (arXiv 1606.08415,
Section 2) replaces Phi by
0.5 (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), within 2e-4 of it. It is
several times cheaper than erf, and more so in float32, where erf gains
nothing; the flow's vector field uses it. It is not in `ACTIVATIONS`, so
no config selects it.

They keep the input's dtype: float32 in, float32 out.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._scipy import compiled_scipy


@functools.cache
def _erf():
    """scipy's erf ufunc, without importing scipy.special."""
    return compiled_scipy("special", "_special_ufuncs", "erf")


def erf(x, out=None):
    """scipy.special.erf(x, out=out), its module loaded on the first call."""
    return _erf()(x, out=out)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_TANH_C = math.sqrt(2.0 / math.pi)
_TANH_K = 0.044715
_TANH_CK = _TANH_C * _TANH_K


def relu(x):
    return np.maximum(x, 0.0)


def relu_grad(x):
    return (x > 0.0).astype(x.dtype)


def gelu_cdf(x):
    """Standard normal cdf Phi(x); gelu(x) = x * Phi(x)."""
    out = np.multiply(x, _INV_SQRT2)
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


def gelu_tanh_twice_cdf(x, out=None):
    """1 + tanh(c (x + k x^3)) with c = sqrt(2/pi) and k = 0.044715, its
    argument computed as x (c k x^2 + c), into `out` (a new array when
    None; not `x`): twice `gelu_tanh_cdf(x)`, without its last multiply."""
    out = np.multiply(x, x, out=out)
    np.multiply(out, _TANH_CK, out=out)
    np.add(out, _TANH_C, out=out)
    np.multiply(out, x, out=out)
    np.tanh(out, out=out)
    return np.add(1.0, out, out=out)


def gelu_tanh_cdf(x):
    """The tanh form of Phi(x), 0.5 (1 + tanh(c (x + k x^3))).
    gelu_tanh(x) = x * gelu_tanh_cdf(x)."""
    out = gelu_tanh_twice_cdf(x)
    return np.multiply(0.5, out, out=out)


def gelu_tanh(x):
    return x * gelu_tanh_cdf(x)


def gelu_tanh_grad(x, cdf=None):
    """d gelu_tanh / dx; `cdf` is gelu_tanh_cdf(x) when the caller already
    has it. With z = c x (1 + k x^2), 1 - tanh(z)^2 = 4 cdf (1 - cdf), so
    the derivative cdf + x * 0.5 (1 - tanh^2) dz/dx needs no exp:
    cdf + 2 c x cdf (1 - cdf) (1 + 3 k x^2)."""
    if cdf is None:
        cdf = gelu_tanh_cdf(x)
    slope = x * x
    slope *= 3.0 * _TANH_K
    slope += 1.0
    slope *= x
    slope *= 2.0 * _TANH_C
    slope *= cdf
    slope *= 1.0 - cdf
    slope += cdf
    return slope


def identity(x):
    return x


def identity_grad(x):
    return np.ones_like(x)


ACTIVATIONS = {
    "relu": (relu, relu_grad),
    "gelu": (gelu, gelu_grad),
    "identity": (identity, identity_grad),
}
