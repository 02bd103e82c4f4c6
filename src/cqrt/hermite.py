"""Overflow-safe evaluation of physicists' Hermite polynomials.

The three-term recurrence H_{k+1}(z) = 2 z H_k(z) - 2 k H_{k-1}(z) grows past
1e150 well before n = 70 at moderate |z|, so raw values are useless in double
precision.  Everything downstream only needs the ratio H_{n-1}/H_n or the
log-magnitude, both of which survive a running rescale of the pair.

The rescale multiplies the pair by a power of two, which is exact: the
recurrence commutes with it, so the ratio and the near-node mask do not
depend on when or whether it happens.  Every value stays finite for n <= 70
and |z| below about 1e207; see _recurrence_pair for the bound.
"""

from __future__ import annotations

import math

import numpy as np

#: the recurrence pair is rescaled where its magnitude passes 2**333 = 1.75e100
RESCALE_THRESHOLD = 2.0**333

# bits by which a pair below RESCALE_THRESHOLD may grow and stay below half the
# largest double (about 690)
_HEADROOM_BITS = math.log2(np.finfo(float).max / RESCALE_THRESHOLD) - 1.0

# |H_{n-1}/H_n| at or above 1/NEAR_NODE_RTOL means the ratio has no correct digits.
NEAR_NODE_RTOL = 1e-12


def _recurrence_pair(n, z, size=None):
    """Run the recurrence up to H_n, rescaling in place by powers of two.

    Returns (h_prev, h_cur, exp2) where H_{n-1} = h_prev * 2**exp2 and
    H_n = h_cur * 2**exp2, elementwise over z; exp2 is an integer array.

    The magnitude m = max(|h_prev|, |h_cur|) is tested once every `cadence`
    steps, and where m > RESCALE_THRESHOLD both values are multiplied by
    2**-e, e the binary exponent of m.  Since |H_{k+1}| <= (2|z| + 2k)
    max(|H_k|, |H_{k-1}|), a step grows m by at most g = 2 max|z| + 2n, the
    maximum over the finite z.  So cadence = floor(690 / log2 g) steps from
    m <= 2**333 keep m, and every product of the step, below 2**1023.  The
    cadence is at least 1, so the values are finite for log2 g < 690, that
    is |z| < 2**689 (about 2e207).  The first test, of (1, 2z), is skipped if
    max|z| <= RESCALE_THRESHOLD / 4 (a factor 2 spare for abs's rounding; a
    NaN max is tested), so at |z| <= 20 and n <= 70 the pair is never tested.

    `size` stands for |z| in setting the cadence and the first test: the
    |z| of a whole array that z is one block of, or just their maximum, so
    that every block is rescaled as one call on the whole array would be.
    """
    z = np.asarray(z, dtype=complex)
    h_prev = np.ones(z.shape, dtype=complex)
    h_cur = np.multiply(z, 2.0, out=np.empty(z.shape, dtype=complex))
    exp2 = np.zeros(z.shape, dtype=int)
    if n < 2:
        return h_prev, h_cur, exp2
    size = np.abs(z) if size is None else size
    growth = 2.0 * np.max(size, initial=0.0, where=np.isfinite(size)) + 2.0 * n
    cadence = max(1, int(_HEADROOM_BITS // math.log2(growth)))
    first = 2 if np.max(size, initial=0.0) <= RESCALE_THRESHOLD / 4 else 1
    two_z = h_cur.copy()
    step = np.empty(z.shape, dtype=complex)
    for k in range(1, n):
        if (k - 1) % cadence == 0 and k >= first:
            mag = np.maximum(np.abs(h_prev), np.abs(h_cur))
            big = mag > RESCALE_THRESHOLD
            if np.any(big):
                e = np.frexp(mag)[1]
                scale = np.ldexp(1.0, -e)
                np.multiply(h_prev, scale, out=h_prev, where=big)
                np.multiply(h_cur, scale, out=h_cur, where=big)
                np.add(exp2, e, out=exp2, where=big)
        np.multiply(two_z, h_cur, out=step)
        np.multiply(h_prev, 2.0 * k, out=h_prev)
        np.subtract(step, h_prev, out=h_prev)
        h_prev, h_cur = h_cur, h_prev
    return h_prev, h_cur, exp2


def hermite_ratio_masked(n, z):
    """H_{n-1}(z)/H_n(z) without raising at nodes.

    Returns (ratio, near_node) where near_node marks points at which |H_n|
    is below NEAR_NODE_RTOL |H_{n-1}|, taken from the quotient itself; the
    ratio is 0 there and must not be used.  A NaN ratio is not near a node.
    """
    if n < 1:
        raise ValueError(f"hermite_ratio_masked requires n >= 1, got {n}")
    h_prev, h_cur, _ = _recurrence_pair(n, z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.divide(h_prev, h_cur, out=h_prev)
        near = np.abs(ratio) >= 1 / NEAR_NODE_RTOL
    ratio[near] = 0.0
    return ratio, near


def hermite_log_abs(n, z, *, _size=None):
    """log|H_n(z)|, -inf at exact zeros.  Overflow-safe for large n.

    The rescale cadence, and with it the last bits of large values, follows
    max|z|; a caller that evaluates an array block by block passes the whole
    array's max|z| as _size (see _recurrence_pair) to get its values.
    """
    if n < 0:
        raise ValueError(f"hermite_log_abs requires n >= 0, got {n}")
    z = np.asarray(z, dtype=complex)
    if n == 0:
        return np.zeros(z.shape)
    _, h_cur, exp2 = _recurrence_pair(n, z, _size)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(h_cur)) + exp2 * math.log(2.0)
