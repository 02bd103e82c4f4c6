"""Hermite recurrence: exact small cases, a frozen big-float value, node
detection, overflow headroom at n = 70, the power-of-two rescaling against
the per-step rescaling recurrence it replaced, and the skipped first rescale
test against the pair that always took it."""

import math

import numpy as np
import pytest
from conftest import hermite_real_roots

from cqrt import (
    Eigenstate,
    NearNode,
    SimulationConfig,
    hermite_log_abs,
    log_derivative,
    sample_eigenstate_positions,
    simulate_ensemble,
)
from cqrt.hermite import (
    _HEADROOM_BITS,
    NEAR_NODE_RTOL,
    RESCALE_THRESHOLD,
    _recurrence_pair,
    hermite_ratio_masked,
)
from cqrt.sde import BLOWUP_THRESHOLD

EPS = np.finfo(float).eps

# H_69/H_70 at 3 + 0.5i, frozen from a 260-bit mpmath evaluation of the raw
# polynomial recurrence (see test_matches_bigfloat_oracle for the live check).
RATIO_70_BIGFLOAT = 0.020576070947574601 - 0.0785624938229522837j


def _ratio(n, z):
    """H_{n-1}(z)/H_n(z) at a scalar z off the nodes of H_n, as a complex."""
    ratio, near = hermite_ratio_masked(n, z)
    assert not near
    return complex(ratio)


def test_ratio_n1():
    # H_0 = 1, H_1 = 2z
    assert _ratio(1, 1 + 0j) == pytest.approx(0.5)


def test_ratio_n2():
    # H_2(1) = 4 - 2 = 2, H_1(1) = 2
    assert _ratio(2, 1 + 0j) == pytest.approx(1.0)


def test_ratio_n70_frozen_value():
    value = _ratio(70, 3 + 0.5j)
    assert abs(value - RATIO_70_BIGFLOAT) <= 1e-10 * abs(RATIO_70_BIGFLOAT)


def test_matches_bigfloat_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.prec = 260
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 12:
        n = int(rng.integers(1, 21))
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        ratio, near = hermite_ratio_masked(n, z)
        if near:
            continue
        expected = complex(mp.hermite(n - 1, mp.mpc(z)) / mp.hermite(n, mp.mpc(z)))
        assert abs(complex(ratio) - expected) <= 1e-11 * max(abs(expected), 1e-30)
        checked += 1


def test_h0_has_no_roots():
    roots = hermite_real_roots(0)
    assert roots.shape == (0,) and roots.dtype == np.float64


@pytest.mark.parametrize("n", range(1, 11))
def test_near_node_raised_exactly_at_real_roots(n):
    roots = hermite_real_roots(n)
    assert len(roots) == n
    model = Eigenstate(n)
    for root in roots:
        with pytest.raises(NearNode):
            log_derivative(model, 0.0, complex(root, 0.0))
        # a short distance away the ratio is perfectly well defined
        log_derivative(model, 0.0, complex(root + 1e-3, 0.0))
        log_derivative(model, 0.0, complex(root, 1e-3))


def test_no_overflow_at_n70_large_argument():
    grid = np.linspace(-20, 20, 41)
    z = grid[:, None] + 1j * grid[None, :]
    ratio, near = hermite_ratio_masked(70, z)
    assert np.all(np.isfinite(ratio[~near]))
    log_mag = hermite_log_abs(70, z)
    assert np.all(np.isfinite(log_mag))  # log-space never overflows


def test_log_abs_matches_direct_for_small_n():
    # n = 2 is still safely in range for the raw polynomial
    z = np.array([0.3 + 0.2j, -1.5 + 1.0j, 2.0 - 0.7j])
    direct = np.log(np.abs(4.0 * z * z - 2.0))
    np.testing.assert_allclose(hermite_log_abs(2, z), direct, rtol=1e-12)


def test_log_abs_rejects_negative_degree():
    # the recurrence for n = -1 would stop at H_1
    with pytest.raises(ValueError, match="n >= 0"):
        hermite_log_abs(-1, 0.5 + 0j)


def test_vectorized_matches_scalar():
    # numpy's scalar and array complex divisions may differ in the last ulp
    z = np.array([0.5 + 0.1j, 1.2 - 0.3j, -2.0 + 2.0j])
    vec, near = hermite_ratio_masked(7, z)
    assert not near.any()
    for i, zi in enumerate(z):
        scalar = _ratio(7, complex(zi))
        assert abs(scalar - vec[i]) <= 1e-15 * abs(scalar)


def _frozen_ratio_masked(n, z):
    """hermite_ratio_masked as it was before the in-place rewrite and before
    the near-node mask was read off the quotient: one temporary per
    operation, the mask from the magnitudes, and 0/1 at the nodes."""
    h_prev, h_cur, _ = _recurrence_pair(n, z)
    scale = np.maximum(np.abs(h_prev), np.abs(h_cur))
    near = np.abs(h_cur) <= scale * NEAR_NODE_RTOL
    return np.where(near, 0.0, h_prev) / np.where(near, 1.0, h_cur), near


def _same_bits(new, old):
    return all(np.asarray(a).dtype == np.asarray(b).dtype and np.shape(a) == np.shape(b)
               and np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(new, old))


def _mask_points(n):
    """2e5 random points, the real roots of H_n and their neighbouring doubles,
    points within 1e-13 of the roots, a ring of radius about 1e5, and three
    points where |H_0/H_1| = 1/(2|z|) is exactly 1/NEAR_NODE_RTOL."""
    rng = np.random.default_rng(n)
    spread = np.sqrt(2.0 * n + 1.0) + 2.0
    scattered = rng.normal(0.0, spread, 200_000) + 1j * rng.normal(0.0, 1.0, 200_000)
    roots = hermite_real_roots(n)
    jitter = rng.uniform(-1e-13, 1e-13, (2, 50, n))
    near_roots = roots + jitter[0] + 1j * jitter[1]
    ring = 1e5 * (1.0 + rng.random(1000)) * np.exp(2j * np.pi * rng.random(1000))
    return np.concatenate([scattered, roots, np.nextafter(roots, -np.inf),
                           np.nextafter(roots, np.inf), near_roots.ravel(), ring,
                           [5e-13, -5e-13, 5e-13j]])


@pytest.mark.parametrize("n", [*range(1, 12), 20, 40, 70])
def test_ratio_matches_frozen_expression_bitwise(n):
    rng = np.random.default_rng(n)
    born = sample_eigenstate_positions(n, 3000, 13) + 1j * rng.normal(0.0, 0.7, 3000)
    roots = hermite_real_roots(n) + 0j
    z = np.concatenate([born, roots, roots + 1e-9, _kernel_points(), _mask_points(n)])
    ratio, near = hermite_ratio_masked(n, z)
    assert near.any() and not near.all()
    assert _same_bits((ratio, near), _frozen_ratio_masked(n, z))
    for zi in (z[0], roots[0], roots[-1] + 1e-9):
        assert _same_bits(hermite_ratio_masked(n, zi), _frozen_ratio_masked(n, zi))
    assert _same_bits(hermite_ratio_masked(n, z[:9].tolist()), _frozen_ratio_masked(n, z[:9]))


@pytest.mark.parametrize("n", [1, 2, 70])
def test_nan_is_not_near_a_node(n):
    z = np.array([np.nan, complex(np.nan, 1.0), complex(1.0, np.nan), 0.5])
    ratio, near = hermite_ratio_masked(n, z)
    assert not near.any()
    assert np.isnan(ratio[:3]).all() and np.isfinite(ratio[3])


def _per_step_reference(n, z):
    """The recurrence as it was before the power-of-two rescale: magnitude
    tested after every step, and the pair divided by it past 1e100.  Returns
    (ratio, near, log_abs, rescaled), rescaled marking where it ever divided."""
    z = np.asarray(z, dtype=complex)
    h_prev = np.ones_like(z)
    h_cur = 2.0 * z
    log_scale = np.zeros(z.shape)
    rescaled = np.zeros(z.shape, dtype=bool)
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * z * h_cur - 2.0 * k * h_prev
        mag = np.maximum(np.abs(h_prev), np.abs(h_cur))
        big = mag > 1e100
        if np.any(big):
            factor = np.where(big, mag, 1.0)
            h_prev = h_prev / factor
            h_cur = h_cur / factor
            log_scale = log_scale + np.where(big, np.log(factor), 0.0)
            rescaled |= big
    scale = np.maximum(np.abs(h_prev), np.abs(h_cur))
    near = np.abs(h_cur) <= scale * NEAR_NODE_RTOL
    ratio = np.where(near, 0.0, h_prev) / np.where(near, 1.0, h_cur)
    return ratio, near, np.log(np.abs(h_cur)) + log_scale, rescaled


def _kernel_points():
    """Born n = 70 launches, N(0, 7^2) in both parts, and rings of radius 20
    up to 1e100."""
    rng = np.random.default_rng(5)
    born = sample_eigenstate_positions(70, 2000, 7) + 0j
    normal = rng.normal(0.0, 7.0, 2000) + 1j * rng.normal(0.0, 7.0, 2000)
    phases = np.exp(2j * np.pi * rng.random(100))
    rings = [r * phases for r in (20.0, 1e6, 1.1e6, 1e30, 1e100)]
    return np.concatenate([born, normal, *rings])


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 70])
def test_power_of_two_rescale_matches_per_step_reference(n):
    mp = pytest.importorskip("mpmath")
    mp.mp.prec = 260
    z = _kernel_points()
    ref_ratio, ref_near, ref_log, rescaled = _per_step_reference(n, z)
    ratio, near = hermite_ratio_masked(n, z)
    log_abs = hermite_log_abs(n, z)
    # bit-equal wherever the reference never rescaled
    kept = ~rescaled
    assert np.count_nonzero(kept) >= 2000
    np.testing.assert_array_equal(ratio[kept], ref_ratio[kept])
    np.testing.assert_array_equal(near[kept], ref_near[kept])
    np.testing.assert_array_equal(log_abs[kept], ref_log[kept])
    # within 4 ulp elsewhere
    np.testing.assert_array_equal(near, ref_near)
    moved = rescaled & ~near
    assert np.all(np.abs(ratio - ref_ratio)[moved] <= 4 * EPS * np.abs(ref_ratio)[moved])
    # finite wherever the reference is
    assert np.all(np.isfinite(ratio[np.isfinite(ref_ratio)]))
    assert np.all(np.isfinite(log_abs[np.isfinite(ref_log)]))
    # where the reference rescaled its sum of logs carries up to one rounding
    # per rescale, so the rescaled log magnitudes are held to 260-bit values
    for zi, value in zip(z[rescaled], log_abs[rescaled]):
        exact = float(mp.log(abs(mp.hermite(n, mp.mpc(zi)))))
        assert abs(value - exact) <= 4 * EPS * abs(exact), zi


def test_ratio_at_blowup_threshold_matches_bigfloat():
    mp = pytest.importorskip("mpmath")
    mp.mp.prec = 260
    z = BLOWUP_THRESHOLD * np.exp(2j * np.pi * np.arange(16) / 16)
    ratio, near = hermite_ratio_masked(70, z)
    assert not near.any()
    for zi, value in zip(z, ratio):
        zm = mp.mpc(zi)
        exact = complex(mp.hermite(69, zm) / mp.hermite(70, zm))
        assert abs(value - exact) <= 4 * EPS * abs(exact)


def test_far_launch_still_diverges_at_n70():
    launches = (1e40 + 0j, *(sample_eigenstate_positions(70, 199, 7) + 0j))
    ens = simulate_ensemble(SimulationConfig(
        model=Eigenstate(70), dt=0.05 / 141, t_final=0.01, initial_points=launches,
        n_trajectories=200, master_seed=42, record_mode="crossings_and_final"))
    assert ens.n_diverged == 1
    assert not ens.alive[0]


def _frozen_recurrence_pair(n, z):
    """_recurrence_pair as it was before it skipped the first rescale test:
    the pair (1, 2z) is tested at k = 1 whatever max|z| is."""
    z = np.asarray(z, dtype=complex)
    h_prev = np.ones(z.shape, dtype=complex)
    h_cur = np.multiply(z, 2.0, out=np.empty(z.shape, dtype=complex))
    exp2 = np.zeros(z.shape, dtype=int)
    if n < 2:
        return h_prev, h_cur, exp2
    size = np.abs(z)
    growth = 2.0 * np.max(size, initial=0.0, where=np.isfinite(size)) + 2.0 * n
    cadence = max(1, int(_HEADROOM_BITS // math.log2(growth)))
    two_z = h_cur.copy()
    step = np.empty(z.shape, dtype=complex)
    for k in range(1, n):
        if (k - 1) % cadence == 0:
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


def _rescale_edge_points():
    """|z| at and one double either side of 2**331 ... 2**335 on 8 phases,
    and every pairing of a finite part with +-inf and NaN."""
    phases = np.exp(2j * np.pi * np.arange(8) / 8)
    radii = 2.0 ** np.arange(331, 336)
    radii = np.concatenate([radii, np.nextafter(radii, 0.0), np.nextafter(radii, np.inf)])
    specials = [complex(a, b) for a in (0.7, np.inf, -np.inf, np.nan)
                for b in (0.3, np.inf, -np.inf, np.nan)][1:]
    return np.concatenate([np.outer(radii, phases).ravel(), radii + 0j, specials])


@pytest.mark.parametrize("n", [2, 3, 4, 70])
def test_skipped_first_rescale_test_matches_frozen_pair(n):
    rng = np.random.default_rng(n)
    born = sample_eigenstate_positions(n, 2000, 3) + 1j * rng.normal(0.0, 0.7, 2000)
    edge = _rescale_edge_points()
    with np.errstate(all="ignore"):
        # the Born points alone skip the test, each edge point takes it
        for z in (born, edge, np.concatenate([born, edge]), *edge[:, None], born[:1], born[:0]):
            assert _same_bits(_recurrence_pair(n, z), _frozen_recurrence_pair(n, z)), z
        for zi in (born[0], edge[0], edge[-1]):
            assert _same_bits(_recurrence_pair(n, zi), _frozen_recurrence_pair(n, zi))
