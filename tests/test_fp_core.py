import numpy as np
import pytest

from cfirs import model
from cfirs.fp_core import AuxState

from conftest import aux_constant, build_aux, build_instance, crandn, f3_at, f4_at


def _hermitian_direction(rng, mu):
    e = crandn(rng, (mu, mu))
    e = 0.5 * (e + e.conj().T)
    return e / np.linalg.norm(e)


def test_recovery_identity(make_instance, make_aux):
    for seed in range(10):
        cfg, ch, theta, w, h = build_instance(seed)
        aux = build_aux(cfg, h, w)
        rate = model.sum_rate(ch, w, theta, cfg.sigma2)
        f3 = f3_at(w, theta, aux, ch, cfg.sigma2)
        assert f3 == pytest.approx(rate, rel=1e-8)


def test_zero_beamformers_zero_aux():
    cfg, ch, theta, w, h = build_instance(1)
    zero_w = np.zeros_like(w)
    aux = AuxState(
        u=np.zeros((cfg.k, cfg.m_u, cfg.m_u), complex),
        y=np.zeros((cfg.k, cfg.m_u, cfg.m_u), complex),
    )
    assert f3_at(zero_w, theta, aux, ch, cfg.sigma2) == pytest.approx(0.0, abs=1e-15)
    assert f4_at(zero_w, theta, aux, ch, cfg.sigma2) == pytest.approx(0.0, abs=1e-15)


def test_mmse_filter_scalar_case():
    cfg, ch, _, _, _ = build_instance(2, l=1, k=1, m_b=1, m_u=1, r=0)
    h = model.effective_channel(ch, None)
    w = np.full((1, 1, 1), 0.5 + 0.2j)
    y = model.mmse_filters(model.link_state(h, w, cfg.sigma2))
    hw = h[0, 0, 0].conj() * (0.5 + 0.2j)
    expected = hw / (np.abs(hw) ** 2 + cfg.sigma2)
    assert y[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_mmse_filter_zero_for_zero_w():
    cfg, ch, theta, w, h = build_instance(3)
    zero_w = np.zeros_like(w)
    y = model.mmse_filters(model.link_state(h, zero_w, cfg.sigma2))
    np.testing.assert_allclose(y, 0.0, atol=1e-30)


def test_u_update_is_first_order_stationary(make_instance):
    rng = np.random.default_rng(42)
    for seed in range(5):
        cfg, ch, theta, w, h = build_instance(seed + 10)
        aux = build_aux(cfg, h, w)
        base = f3_at(w, theta, aux, ch, cfg.sigma2)
        eps = 1e-3
        for _ in range(3):
            e = _hermitian_direction(rng, cfg.m_u)
            u_pert = aux.u.copy()
            u_pert[rng.integers(cfg.k)] += eps * e
            pert = f3_at(w, theta, AuxState(u=u_pert, y=aux.y), ch, cfg.sigma2)
            # exact maximizer of a concave problem: no ascent direction
            assert pert <= base + eps ** 2


def test_y_update_is_first_order_stationary():
    rng = np.random.default_rng(3)
    for seed in range(5):
        cfg, ch, theta, w, h = build_instance(seed + 30)
        aux = build_aux(cfg, h, w)
        scale = max(1.0, abs(f3_at(w, theta, aux, ch, cfg.sigma2)))
        eps = 1e-6
        for _ in range(5):
            d = crandn(rng, aux.y.shape)
            d /= np.linalg.norm(d)
            up = f3_at(w, theta, AuxState(u=aux.u, y=aux.y + eps * d), ch, cfg.sigma2)
            dn = f3_at(w, theta, AuxState(u=aux.u, y=aux.y - eps * d), ch, cfg.sigma2)
            assert abs(up - dn) / (2 * eps) < 1e-5 * scale


def test_block_ascent_of_aux_updates():
    # start from auxiliaries tuned for a different phase configuration
    for seed in range(5):
        cfg, ch, theta, w, h = build_instance(seed + 50)
        rng = np.random.default_rng(seed)
        other_theta = cfg.alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.n_irs_total))
        stale = build_aux(cfg, model.effective_channel(ch, other_theta), w)
        before = f3_at(w, theta, stale, ch, cfg.sigma2)

        # exact Y step at fixed U never decreases the surrogate
        y_new = model.mmse_filters(model.link_state(h, w, cfg.sigma2))
        mid = f3_at(w, theta, AuxState(u=stale.u, y=y_new), ch, cfg.sigma2)
        assert mid >= before - 1e-9 * abs(before)

        # the paired U step at the fresh Y lands on the exact joint maximum
        gamma = model.sinr(h, w, cfg.sigma2)
        after = f3_at(w, theta, AuxState(u=gamma, y=y_new), ch, cfg.sigma2)
        assert after >= mid - 1e-9 * abs(mid)
        assert after == pytest.approx(model.sum_rate(ch, w, theta, cfg.sigma2), rel=1e-8)


def test_surrogate_never_exceeds_rate():
    # the joint (U, Y) maximum of the surrogate IS the rate
    rng = np.random.default_rng(8)
    cfg, ch, theta, w, h = build_instance(60)
    rate = model.sum_rate(ch, w, theta, cfg.sigma2)
    for _ in range(10):
        u = np.zeros((cfg.k, cfg.m_u, cfg.m_u), complex)
        for k in range(cfg.k):
            m = crandn(rng, (cfg.m_u, 2 * cfg.m_u))
            u[k] = m @ m.conj().T  # Hermitian PSD
        y = crandn(rng, (cfg.k, cfg.m_u, cfg.m_u))
        val = f3_at(w, theta, AuxState(u=u, y=y), ch, cfg.sigma2)
        assert val <= rate + 1e-9 * abs(rate)


def test_const_u_independent_of_w():
    cfg, ch, theta, w, h = build_instance(4)
    aux = build_aux(cfg, h, w)
    rng = np.random.default_rng(0)
    other = 0.5 * crandn(rng, w.shape)
    gap1 = (f3_at(w, theta, aux, ch, cfg.sigma2)
            - f4_at(w, theta, aux, ch, cfg.sigma2))
    gap2 = (f3_at(other, theta, aux, ch, cfg.sigma2)
            - f4_at(other, theta, aux, ch, cfg.sigma2))
    assert gap1 == pytest.approx(gap2, rel=1e-12)
    assert gap1 == pytest.approx(aux_constant(aux), rel=1e-12)


def test_f4_zero_filters():
    cfg, ch, theta, w, h = build_instance(5)
    aux = build_aux(cfg, h, w)
    zeroed = AuxState(u=aux.u, y=np.zeros_like(aux.y))
    assert f4_at(w, theta, zeroed, ch, cfg.sigma2) == 0.0


def test_f4_concave_in_filters():
    rng = np.random.default_rng(19)
    cfg, ch, theta, w, h = build_instance(6)
    aux = build_aux(cfg, h, w)
    for _ in range(5):
        y1 = crandn(rng, aux.y.shape)
        y2 = crandn(rng, aux.y.shape)
        f1 = f4_at(w, theta, AuxState(u=aux.u, y=y1), ch, cfg.sigma2)
        f2 = f4_at(w, theta, AuxState(u=aux.u, y=y2), ch, cfg.sigma2)
        fm = f4_at(w, theta, AuxState(u=aux.u, y=0.5 * (y1 + y2)), ch, cfg.sigma2)
        assert fm >= 0.5 * (f1 + f2) - 1e-9 * max(1.0, abs(fm))


def test_scalar_degenerate_transform():
    # single link, single antenna, no reflectors: the scalar auxiliary-variable
    # lift log(1+u) - u + (1+u)|hw|^2/(|hw|^2 + s2) peaks at u = |hw|^2/s2
    cfg, ch, _, _, _ = build_instance(7, l=1, k=1, m_b=1, m_u=1, r=0)
    h = model.effective_channel(ch, None)
    wval = 0.7 + 0.3j
    w = np.full((1, 1, 1), wval)
    hw2 = np.abs(h[0, 0, 0].conj() * wval) ** 2
    s2 = cfg.sigma2
    t = hw2 / (hw2 + s2)

    def f1_scalar(u):
        return np.log(1 + u) - u + (1 + u) * t

    u_star = hw2 / s2
    rate = model.sum_rate(ch, w, None, s2)
    assert f1_scalar(u_star) == pytest.approx(rate, rel=1e-10)
    grid = u_star * np.linspace(0.2, 3.0, 41)
    assert all(f1_scalar(u) <= f1_scalar(u_star) + 1e-12 for u in grid)
    # the full evaluation path agrees with the scalar formula on the grid
    y_star = model.mmse_filters(model.link_state(h, w, s2))
    for u in grid[::8]:
        aux = AuxState(u=np.array([[[u]]], complex), y=y_star)
        got = f3_at(w, None, aux, ch, s2)
        assert got == pytest.approx(f1_scalar(u), rel=1e-9)


def test_aux_constant_rejects_singular():
    u = -np.eye(2, dtype=complex)[None]
    with pytest.raises(np.linalg.LinAlgError):
        aux_constant(AuxState(u=u, y=np.zeros((1, 2, 2), complex)))


def test_aux_constant_rejects_indefinite():
    # det(I + U) = -2: no log-determinant exists, so no value may come back.
    u = np.diag([-3.0, 0.0]).astype(complex)[None]
    with pytest.raises(np.linalg.LinAlgError):
        aux_constant(AuxState(u=u, y=np.zeros((1, 2, 2), complex)))
