"""Overflow-safe evaluation of physicists' Hermite polynomials.

The three-term recurrence H_{k+1}(z) = 2 z H_k(z) - 2 k H_{k-1}(z) grows past
1e150 well before n = 70 at moderate |z|, so raw values are useless in double
precision.  Everything downstream only needs the ratio H_{n-1}/H_n or the
log-magnitude, both of which survive a running rescale of the pair.
"""

from __future__ import annotations

import numpy as np

from .errors import NearNode

# Rescale the recurrence pair once its magnitude passes this threshold.
RESCALE_THRESHOLD = 1e100

# |H_n| below scale * NEAR_NODE_RTOL means the ratio has no correct digits.
NEAR_NODE_RTOL = 1e-12


def _recurrence_pair(n, z):
    """Run the recurrence up to H_n, rescaling in place.

    Returns (h_prev, h_cur, log_scale) where H_{n-1} = h_prev * exp(log_scale)
    and H_n = h_cur * exp(log_scale), elementwise over z.
    """
    z = np.asarray(z, dtype=complex)
    h_prev = np.ones_like(z)
    h_cur = 2.0 * z
    log_scale = np.zeros(z.shape)
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * z * h_cur - 2.0 * k * h_prev
        mag = np.maximum(np.abs(h_prev), np.abs(h_cur))
        big = mag > RESCALE_THRESHOLD
        if np.any(big):
            factor = np.where(big, mag, 1.0)
            h_prev = h_prev / factor
            h_cur = h_cur / factor
            log_scale = log_scale + np.where(big, np.log(factor), 0.0)
    return h_prev, h_cur, log_scale


def hermite_ratio_masked(n, z):
    """H_{n-1}(z)/H_n(z) without raising at nodes.

    Returns (ratio, near_node) where near_node marks points at which H_n
    underflows relative to the running scale; the ratio is 0 there and must
    not be used.
    """
    if n < 1:
        raise ValueError(f"hermite_ratio requires n >= 1, got {n}")
    h_prev, h_cur, _ = _recurrence_pair(n, z)
    scale = np.maximum(np.abs(h_prev), np.abs(h_cur))
    near = np.abs(h_cur) <= scale * NEAR_NODE_RTOL
    ratio = np.where(near, 0.0, h_prev) / np.where(near, 1.0, h_cur)
    return ratio, near


def hermite_ratio(n: int, z):
    """H_{n-1}(z)/H_n(z), stable for n <= 70 and |z| <= 20.

    Raises NearNode if any evaluation point is numerically a zero of H_n.
    Accepts scalars or arrays.
    """
    return raise_at_nodes(hermite_ratio_masked(n, z), z, f"H_{n}")


def raise_at_nodes(masked, z, name):
    """The rule of every raising wrapper: the values of a masked result
    (values, near_node) at z, a complex for a scalar z; NearNode at a node."""
    values, near = masked
    if np.any(near):
        raise NearNode(f"{name} has a node at {np.count_nonzero(near)} point(s)")
    return complex(values) if np.ndim(z) == 0 else values


def hermite_log_abs(n, z):
    """log|H_n(z)|, -inf at exact zeros.  Overflow-safe for large n."""
    z = np.asarray(z, dtype=complex)
    if n == 0:
        return np.zeros(z.shape)
    _, h_cur, log_scale = _recurrence_pair(n, z)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(h_cur)) + log_scale


def hermite_real_roots(n: int) -> np.ndarray:
    """The n real zeros of H_n, ascending."""
    if n == 0:
        return np.array([])
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    return np.sort(np.polynomial.hermite.hermroots(coeffs))
