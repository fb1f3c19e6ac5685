import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfirs import channel as chan
from conftest import small_config


# ---- path loss ----

def test_path_loss_reference_distance():
    assert chan.path_loss(1.0, 3.75, 1e-3) == pytest.approx(1e-3)


def test_path_loss_direct_evaluation():
    # oracle: c0 * (d/d0)^(-p) evaluated directly
    expected = 1e-3 * 100.0 ** (-2.2)
    assert expected == pytest.approx(3.9810717055349695e-08, rel=1e-12)
    assert chan.path_loss(100.0, 2.2, 1e-3) == pytest.approx(expected, rel=1e-12)


def test_path_loss_zero_exponent():
    assert chan.path_loss(10.0, 0.0, 1.0) == pytest.approx(1.0)


def test_path_loss_rejects_bad_distance():
    with pytest.raises(ValueError):
        chan.path_loss(0.0, 2.0, 1e-3)
    with pytest.raises(ValueError):
        chan.path_loss(-1.0, 2.0, 1e-3)


# ---- steering vectors ----

def test_ula_broadside():
    np.testing.assert_allclose(chan.ula_steering(0.0, 4), np.ones(4))


def test_ula_endfire():
    np.testing.assert_allclose(
        chan.ula_steering(np.pi / 2, 2), [1.0, np.exp(1j * np.pi)], atol=1e-15
    )


def test_ula_thirty_degrees():
    # sin(pi/6) = 1/2: phases step by pi/2
    expected = [1.0, np.exp(1j * np.pi / 2), np.exp(1j * np.pi)]
    np.testing.assert_allclose(chan.ula_steering(np.pi / 6, 3), expected, atol=1e-15)


def test_ula_rejects_empty():
    with pytest.raises(ValueError):
        chan.ula_steering(0.3, 0)


def test_upa_all_ones():
    np.testing.assert_allclose(
        chan.upa_steering(0.0, np.pi / 2, 2, 2), np.ones(4), atol=1e-15
    )


def test_upa_single_element():
    np.testing.assert_allclose(chan.upa_steering(1.1, 2.2, 1, 1), [1.0])


def test_upa_kronecker_structure():
    a_h = np.ones(3)
    got = chan.upa_steering(np.pi / 2, np.pi / 2, 2, 3)
    expected = np.concatenate([a_h, np.exp(1j * np.pi) * a_h])
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_upa_rejects_zero_counts():
    with pytest.raises(ValueError):
        chan.upa_steering(0.1, 0.1, 0, 3)


@settings(max_examples=50, deadline=None)
@given(
    angle=st.floats(-10, 10, allow_nan=False),
    m=st.integers(min_value=1, max_value=32),
)
def test_ula_unit_modulus(angle, m):
    v = chan.ula_steering(angle, m)
    assert v[0] == 1.0
    np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    az=st.floats(0, 2 * np.pi, allow_nan=False),
    el=st.floats(0, np.pi, exclude_max=True, allow_nan=False),
    n_v=st.integers(1, 6),
    n_h=st.integers(1, 6),
)
def test_upa_unit_modulus(az, el, n_v, n_h):
    v = chan.upa_steering(az, el, n_v, n_h)
    assert v.shape == (n_v * n_h,)
    assert v[0] == 1.0
    np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)


# ---- channel synthesis ----

def _draw(cfg, seed):
    rng = np.random.default_rng(seed)
    geo = chan.sample_ue_positions(chan.default_geometry(cfg), rng)
    ang = chan.sample_angles(cfg, rng)
    return chan.sample_channels(cfg, geo, ang, rng)


def test_sample_channels_deterministic():
    cfg = small_config()
    a = _draw(cfg, 123)
    b = _draw(cfg, 123)
    np.testing.assert_array_equal(a.direct, b.direct)
    np.testing.assert_array_equal(a.irs_ue, b.irs_ue)
    np.testing.assert_array_equal(a.bs_irs, b.bs_irs)


def test_strong_rician_factor_gives_rank_one():
    cfg = small_config(beta_g=1e9, beta_s=1e9, n=9, n_h=3, n_v=3)
    ch = _draw(cfg, 7)
    for r in range(cfg.r):
        for k in range(cfg.k):
            s = np.linalg.svd(ch.irs_ue[r, k], compute_uv=False)
            assert s[1] < 1e-6 * s[0]
    for l in range(cfg.l):
        for r in range(cfg.r):
            s = np.linalg.svd(ch.bs_irs[l, r], compute_uv=False)
            assert s[1] < 1e-6 * s[0]


def test_infinite_rician_factor_and_exponent_are_kept():
    # SystemConfig rejects NaN and most infinities, but +inf is the pure
    # line-of-sight limit of a Rician factor and a valid path-loss exponent.
    dims = dict(n=9, n_h=3, n_v=3)
    inf = _draw(small_config(beta_g=np.inf, beta_s=np.inf, **dims), 7)
    limit = _draw(small_config(beta_g=chan.RICIAN_INFINITE, beta_s=chan.RICIAN_INFINITE, **dims), 7)
    np.testing.assert_array_equal(inf.irs_ue, limit.irs_ue)
    np.testing.assert_array_equal(inf.bs_irs, limit.bs_irs)
    ch = _draw(small_config(pathloss_irs=np.inf, **dims), 7)
    assert not ch.irs_ue.any() and not ch.bs_irs.any()


def test_zero_rician_factor_ignores_steering():
    # with no line-of-sight weight the angles cannot matter
    cfg = small_config(beta_g=0.0, beta_s=0.0)
    rng1 = np.random.default_rng(11)
    rng2 = np.random.default_rng(11)
    geo = chan.default_geometry(cfg)
    ang1 = chan.sample_angles(cfg, np.random.default_rng(1))
    ang2 = chan.sample_angles(cfg, np.random.default_rng(2))
    ch1 = chan.sample_channels(cfg, geo, ang1, rng1)
    ch2 = chan.sample_channels(cfg, geo, ang2, rng2)
    np.testing.assert_allclose(ch1.irs_ue, ch2.irs_ue)
    np.testing.assert_allclose(ch1.bs_irs, ch2.bs_irs)


def test_rayleigh_second_moment():
    # unit large-scale gain: c0 = 1, zero exponent
    cfg = small_config(l=1, k=1, r=0, n=1, n_h=1, n_v=1, m_b=100, m_u=100,
                       c0=1.0, pathloss_direct=0.0)
    ch = _draw(cfg, 5)
    power = np.abs(ch.direct) ** 2
    assert power.size == 10000
    assert 0.97 <= power.mean() <= 1.03


def test_no_irs_case_has_empty_families():
    cfg = small_config(r=0)
    ch = _draw(cfg, 3)
    assert ch.irs_ue.shape[0] == 0
    assert ch.bs_irs.shape[1] == 0


def test_geometry_rejects_flat_nodes():
    cfg = small_config()
    geo = chan.default_geometry(cfg)
    bad = np.array(geo.bs_positions, float)
    bad[0, 2] = 0.0
    with pytest.raises(ValueError):
        chan.Geometry(
            bs_positions=bad, irs_positions=geo.irs_positions,
            ue_positions=geo.ue_positions,
        ).validate(cfg)


@pytest.mark.parametrize("bad", [
    {"ue_center_x": math.inf}, {"ue_center_x": math.nan}, {"ue_radius": math.inf},
    {"ue_radius": math.nan}, {"ue_radius": -1.0}, {"bs_positions": math.nan},
    {"irs_positions": math.inf}, {"ue_positions": -math.inf},
], ids=["center_inf", "center_nan", "radius_inf", "radius_nan", "radius_negative",
        "bs_nan", "irs_inf", "ue_minus_inf"])
def test_geometry_rejects_non_finite_numbers(bad):
    # A non-finite coordinate, centre or radius, or a negative radius, is
    # refused when the geometry is built, before any channel is drawn.
    geo = chan.default_geometry(small_config())
    name, value = next(iter(bad.items()))
    if name.endswith("positions"):
        arr = np.array(getattr(geo, name), float)
        arr[0, 0] = value
        value = arr
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(geo, **{name: value})


def test_fixed_ue_geometry_is_not_redrawn():
    cfg = small_config()
    geo = chan.default_geometry(cfg)
    fixed = dataclasses.replace(geo, fixed_ue=True)
    rng = np.random.default_rng(3)
    assert chan.sample_ue_positions(fixed, rng) is fixed
    assert rng.uniform() == np.random.default_rng(3).uniform()
    moved = chan.sample_ue_positions(geo, rng)
    assert not moved.fixed_ue and not np.array_equal(moved.ue_positions, geo.ue_positions)


# ---- bounded estimation error ----

def test_csi_error_zero_is_identity():
    cfg = small_config()
    ch = _draw(cfg, 21)
    est = chan.apply_csi_error(ch, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(est.direct, ch.direct)
    np.testing.assert_array_equal(est.irs_ue, ch.irs_ue)
    np.testing.assert_array_equal(est.bs_irs, ch.bs_irs)


def test_csi_error_rejects_negative_rho():
    cfg = small_config()
    ch = _draw(cfg, 21)
    with pytest.raises(ValueError):
        chan.apply_csi_error(ch, -0.1, np.random.default_rng(0))


def _norm_bound_holds(true_mat, est_mat, rho):
    delta = true_mat - est_mat
    return np.linalg.norm(delta) <= rho * np.linalg.norm(est_mat) + 1e-12


@pytest.mark.parametrize("rho", [0.05, 0.1, 0.3])
def test_csi_error_bound(rho):
    cfg = small_config()
    ch = _draw(cfg, 33)
    rng = np.random.default_rng(9)
    for _ in range(100):
        est = chan.apply_csi_error(ch, rho, rng)
        for l in range(cfg.l):
            for k in range(cfg.k):
                assert _norm_bound_holds(ch.direct[l, k], est.direct[l, k], rho)
        for r in range(cfg.r):
            for k in range(cfg.k):
                assert _norm_bound_holds(ch.irs_ue[r, k], est.irs_ue[r, k], rho)
        for l in range(cfg.l):
            for r in range(cfg.r):
                assert _norm_bound_holds(ch.bs_irs[l, r], est.bs_irs[l, r], rho)


def _reference_csi_error(channels, rho, rng):
    """The bounded error model one block at a time: a Gaussian direction,
    real parts then imaginary parts, rescaled to radius rho/(1+rho) * ||H||_F;
    zero blocks and zero draws are copied."""

    def perturb(matrix):
        delta = (rng.standard_normal(matrix.shape)
                 + 1j * rng.standard_normal(matrix.shape)) / np.sqrt(2.0)
        norm_m = np.linalg.norm(matrix)
        norm_d = np.linalg.norm(delta)
        if norm_m == 0.0 or norm_d == 0.0:
            return matrix.copy()
        return matrix - delta * (rho / (1.0 + rho) * norm_m / norm_d)

    out = []
    for blocks in (channels.direct, channels.irs_ue, channels.bs_irs):
        est = np.empty_like(blocks)
        for a in range(blocks.shape[0]):
            for b in range(blocks.shape[1]):
                est[a, b] = perturb(blocks[a, b])
        out.append(est)
    return chan.ChannelSet(*out)


@pytest.mark.parametrize("rho", [0.0, 0.05, 0.2])
@pytest.mark.parametrize("r", [0, 2])
def test_csi_error_matches_per_block_reference(rho, r):
    cfg = small_config(r=r)
    ch = _draw(cfg, 12)
    ch.direct[0, 1] = 0.0  # a zero block stays zero
    rng_got, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
    got = chan.apply_csi_error(ch, rho, rng_got)
    ref = _reference_csi_error(ch, rho, rng_ref)
    for name in ("direct", "irs_ue", "bs_irs"):
        g, e = getattr(got, name), getattr(ref, name)
        if rho == 0.0:
            np.testing.assert_array_equal(g, e)
        else:
            assert np.linalg.norm(g - e) <= 1e-15 * np.linalg.norm(e)
    # The same draws in the same order: sweeps over rho stay paired.
    assert rng_got.bit_generator.state == rng_ref.bit_generator.state


def test_csi_error_without_irs():
    cfg = small_config(r=0)
    ch = _draw(cfg, 4)
    est = chan.apply_csi_error(ch, 0.2, np.random.default_rng(2))
    assert est.irs_ue.size == 0
    assert not np.array_equal(est.direct, ch.direct)
