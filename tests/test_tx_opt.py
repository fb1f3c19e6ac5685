import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfirs import model, tx_opt
from cfirs.config import full_config
from cfirs.fp_core import AuxState
from cfirs.model import BeamformerSet
from cfirs.tx_opt import QuadraticForm

from conftest import build_aux, build_instance, crandn, f4_at, per_link


def pgd_reference(h, aux, p_max, iters=4000):
    """Independent projected-gradient solver for the precoder subproblem."""
    form = QuadraticForm.build(h, aux, len(p_max))
    L, Mb = form.l, form.m_b
    c = form.c.transpose(1, 0, 2)  # C_k for each user k
    K, Mu = c.shape[0], c.shape[2]
    eigmax = float(np.linalg.eigvalsh(form.a).max())
    step = 1.0 / max(eigmax, 1e-30)
    ws = np.zeros((K, L * Mb, Mu), complex)
    for _ in range(iters):
        grad = np.einsum("ab,kbv->kav", form.a, ws) - c
        ws = ws - step * grad
        blocks = ws.reshape(K, L, Mb, Mu)
        power = np.sum(np.abs(blocks) ** 2, axis=(0, 2, 3))
        for l in range(L):
            if power[l] > p_max[l]:
                blocks[:, l] *= np.sqrt(p_max[l] / power[l])
        ws = blocks.reshape(K, L * Mb, Mu)
    w = ws.transpose(1, 0, 2)
    return BeamformerSet(w=w, l=L), form.value(w)


def _instance_with_aux(seed, **over):
    cfg, ch, theta, w, h = build_instance(seed, **over)
    aux = build_aux(cfg, h, w)
    return cfg, ch, theta, w, h, aux


# ---- objective ----

def test_f5_zero_at_zero():
    cfg, ch, theta, w, h, aux = _instance_with_aux(0)
    assert QuadraticForm.build(h, aux, cfg.l).value(np.zeros_like(w)) == 0.0


def test_f5_f4_difference_identity():
    rng = np.random.default_rng(1)
    cfg, ch, theta, w, h, aux = _instance_with_aux(1)
    w1 = 0.3 * crandn(rng, w.shape)
    w2 = 0.3 * crandn(rng, w.shape)
    d4 = (f4_at(w1, theta, aux, ch, cfg.sigma2)
          - f4_at(w2, theta, aux, ch, cfg.sigma2))
    form = QuadraticForm.build(h, aux, cfg.l)
    d5 = form.value(w2) - form.value(w1)
    assert d4 == pytest.approx(d5, rel=1e-9)


def test_f5_scalar_quadratic():
    cfg, ch, _, _, _ = build_instance(2, l=1, k=1, m_b=1, m_u=1, r=0)
    h = model.effective_channel(ch, None)
    aux = AuxState(u=np.array([[[0.8]]], complex), y=np.array([[[0.4 - 0.2j]]]))
    hval = h[0, 0, 0]
    ubar = 1.8
    a = np.abs(hval) ** 2 * np.abs(0.4 - 0.2j) ** 2 * ubar
    b = hval * (0.4 - 0.2j) * ubar  # linear coefficient: -2 Re{b^* w}
    form = QuadraticForm.build(h, aux, cfg.l)
    for wval in (0.1 + 0.2j, -0.5j, 1.0):
        w = np.full((1, 1, 1), wval)
        expected = a * np.abs(wval) ** 2 - 2 * np.real(np.conj(b) * wval)
        assert form.value(w) == pytest.approx(expected, rel=1e-12)
    # minimizer of the scalar quadratic
    w_star = b / a
    got = form.solve(np.zeros(1))
    assert got[0, 0, 0] == pytest.approx(w_star, rel=1e-9)


# ---- primal update ----

def test_primal_regularization_shrinks_norm():
    cfg, ch, theta, w, h, aux = _instance_with_aux(3)
    lams = [0.0, 1.0, 10.0, 1e3, 1e6]
    norms = []
    for lam in lams:
        got = QuadraticForm.build(h, aux, cfg.l).solve(np.full(cfg.l, lam))
        norms.append(np.linalg.norm(got))
    assert all(norms[i] > norms[i + 1] for i in range(len(norms) - 1))
    assert norms[-1] < 1e-4 * norms[0]


def test_primal_scalar_closed_form():
    cfg, ch, _, _, _ = build_instance(4, l=1, k=1, m_b=1, m_u=1, r=0)
    h = model.effective_channel(ch, None)
    y, ubar = 0.3 + 0.5j, 2.0
    aux = AuxState(u=np.array([[[ubar - 1.0]]], complex), y=np.array([[[y]]]))
    lam = 0.7
    got = QuadraticForm.build(h, aux, cfg.l).solve(np.array([lam]))
    hv = h[0, 0, 0]
    expected = hv * y * ubar / (np.abs(hv) ** 2 * np.abs(y) ** 2 * ubar + lam)
    assert got[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_primal_is_lagrangian_stationary_point():
    rng = np.random.default_rng(7)
    cfg, ch, theta, w, h, aux = _instance_with_aux(5)
    lam = np.ones(cfg.l)
    form = QuadraticForm.build(h, aux, cfg.l)
    got = form.solve(lam)

    def lagrangian(warr):
        val = form.value(warr)
        power = BeamformerSet(w=warr, l=cfg.l).per_bs_power()
        return val + np.dot(lam, power - np.asarray(cfg.p_max))

    base_scale = max(1.0, abs(lagrangian(got)))
    eps = 1e-6
    for _ in range(5):
        d = crandn(rng, got.shape)
        d /= np.linalg.norm(d)
        deriv = (lagrangian(got + eps * d) - lagrangian(got - eps * d)) / (2 * eps)
        assert abs(deriv) < 1e-5 * base_scale


def test_power_monotone_in_own_multiplier():
    cfg, ch, theta, w, h, aux = _instance_with_aux(6)
    form = QuadraticForm.build(h, aux, cfg.l)
    for l in range(cfg.l):
        prev = np.inf
        for lam_l in [0.0, 0.1, 1.0, 10.0, 100.0]:
            lam = np.full(cfg.l, 0.5)
            lam[l] = lam_l
            power = float(BeamformerSet(w=form.solve(lam), l=cfg.l).per_bs_power()[l])
            assert power <= prev + 1e-12
            prev = power


# ---- full subproblem solver ----

def test_optimize_w_inactive_constraint():
    cfg, ch, theta, w, h, aux = _instance_with_aux(8)
    cfg_loose = cfg.with_(p_max=(1e9,) * cfg.l)
    got, lam, info = tx_opt.optimize_w(h, aux, cfg_loose)
    assert info["converged"]
    np.testing.assert_allclose(lam, 0.0, atol=1e-9)
    unconstrained = QuadraticForm.build(h, aux, cfg.l).solve(np.zeros(cfg.l))
    np.testing.assert_allclose(got, unconstrained, rtol=1e-6)


def test_optimize_w_active_constraint():
    cfg, ch, theta, w, h, aux = _instance_with_aux(9)
    got, lam, info = tx_opt.optimize_w(h, aux, cfg)
    got = BeamformerSet(w=got, l=cfg.l)
    power = got.per_bs_power()
    # tight budgets: every BS transmits at its cap
    np.testing.assert_allclose(power, np.asarray(cfg.p_max), rtol=1e-3)
    got.validate(cfg.p_max)


def test_optimize_w_block_ascent():
    for seed in range(5):
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed + 40)
        before = f4_at(w, theta, aux, ch, cfg.sigma2)
        got, _, _ = tx_opt.optimize_w(h, aux, cfg, w_prev=w)
        after = f4_at(got, theta, aux, ch, cfg.sigma2)
        assert after >= before - 1e-9 * max(1.0, abs(before))


def test_optimize_w_feasible_and_slack():
    for seed in range(5):
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed + 60)
        got, lam, info = tx_opt.optimize_w(h, aux, cfg)
        BeamformerSet(w=got, l=cfg.l).validate(cfg.p_max)
        assert np.max(np.abs(info["slackness"])) < 1e-4 * min(cfg.p_max)


def test_optimize_w_matches_projected_gradient():
    for seed in range(5):
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed + 80)
        got, _, info = tx_opt.optimize_w(h, aux, cfg)
        _, ref_value = pgd_reference(h, aux, np.asarray(cfg.p_max))
        assert info["f5"] == pytest.approx(ref_value, rel=1e-4, abs=1e-9)


# ---- reference dual solver (f5 oracle) ----

class _ReferenceForm:
    """QuadraticForm pieces with the solve written as A + diag(repeat(lam))."""

    def __init__(self, form):
        self.form, self.l, self.m_b = form, form.l, form.m_b

    def solve(self, lam):
        """Per-link precoders (L, K, m_b, m_u) at the multipliers."""
        dim = self.l * self.m_b
        reg = np.repeat(np.asarray(lam, float), self.m_b)
        m = self.form.a + np.diag(reg)
        rhs = self.form.c_rows
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            sol = tx_opt._floored_solve(m, rhs)
        if not np.isfinite(sol).all():
            sol = tx_opt._floored_solve(m, rhs)
        return per_link(sol.reshape(self.form.c.shape), self.l)


def _reference_bisection(form, lam0, p_max, rounds=12, tol=1e-11):
    """Gauss-Seidel bisection: per BS, drive lambda_l to the root of the
    (monotone, non-increasing) power violation, or to zero when the
    constraint is slack there."""
    lam = lam0.copy()

    def power_at(l, value):
        trial = lam.copy()
        trial[l] = value
        return float(np.sum(np.abs(form.solve(trial)[l]) ** 2))

    for _ in range(rounds):
        moved = 0.0
        for l in range(p_max.size):
            old = lam[l]
            if power_at(l, 0.0) <= p_max[l]:
                lam[l] = 0.0
            else:
                hi = max(old, 1.0)
                while power_at(l, hi) > p_max[l] and hi < 1e18:
                    hi *= 2.0
                lo = 0.0
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if power_at(l, mid) > p_max[l]:
                        lo = mid
                    else:
                        hi = mid
                    if hi - lo <= tol * max(hi, 1.0):
                        break
                lam[l] = hi
            moved = max(moved, abs(lam[l] - old))
        if moved <= tol * max(1.0, float(np.max(lam))):
            break
    return lam


def _reference_optimize_w(h, aux, config, lam0=None, w_prev=None):
    """The projected sub-gradient dual ascent with geometric step sizes and
    a bisection finish, all multipliers updated at once; returns f5."""
    form = QuadraticForm.build(h, aux, config.l)
    ref = _ReferenceForm(form)
    p_max = np.asarray(config.p_max, float)
    c_bs = per_link(form.c, config.l)
    lam_scale = np.sqrt(np.sum(np.abs(c_bs) ** 2, axis=(1, 2, 3)) / p_max)
    lam_scale = np.maximum(lam_scale, 1e-30)
    lam = lam_scale.copy() if lam0 is None else np.asarray(lam0, float).copy()
    tau = 1.0 / p_max
    lam_floor = 1e-14 * lam_scale
    tau_cap = 1e9 / p_max
    prev_sign = np.zeros(config.l)
    converged = False
    for _ in range(tx_opt.MAX_DUAL):
        lam_eff = np.where(lam > lam_floor, lam, 0.0)
        f_l = np.sum(np.abs(ref.solve(lam_eff)) ** 2, axis=(1, 2, 3)) - p_max
        sign = np.sign(f_l)
        tau[(sign * prev_sign) < 0] *= 0.5
        same = (sign * prev_sign) > 0
        tau[same] = np.minimum(tau[same] * 2.0, tau_cap[same])
        prev_sign = sign
        anchor = np.maximum(lam, lam_floor)
        lam_new = np.clip(anchor + tau * f_l, anchor / 10.0, anchor * 10.0)
        wake = (lam <= lam_floor) & (f_l > 0)
        lam_new[wake] = np.maximum(lam_new[wake], lam_scale[wake])
        lam_new = np.maximum(lam_new, lam_floor)
        new_eff = np.where(lam_new > lam_floor, lam_new, 0.0)
        ok = all(abs(n - o) / n < tx_opt.EPS1 if n > tx_opt.EPS1 else abs(n - o) < tx_opt.EPS1
                 for n, o in zip(new_eff, lam_eff))
        lam = lam_new
        if ok:
            converged = True
            break
    lam = np.where(lam > lam_floor, lam, 0.0)
    if not converged:
        lam = _reference_bisection(ref, lam, p_max)
    cutoff = np.maximum(1e-2 * lam_scale, 10.0 * tx_opt.EPS1)
    small = (lam > 0.0) & (lam < cutoff)
    if small.any():
        trial = np.where(small, 0.0, lam)
        trial_power = np.sum(np.abs(ref.solve(trial)) ** 2, axis=(1, 2, 3))
        if (trial_power <= p_max * (1.0 + 1e-9)).all():
            lam = trial
    w = ref.solve(lam)
    power = np.sum(np.abs(w) ** 2, axis=(1, 2, 3))
    over = power > p_max * (1.0 + 1e-9)
    w = w * np.sqrt(p_max / np.where(over, power, p_max))[:, None, None, None]
    f5 = form.value(w.transpose(0, 2, 1, 3).reshape(form.c.shape))
    if w_prev is not None:
        f5 = min(f5, form.value(w_prev))
    return f5


DESK = dict(l=3, k=2, r=2, m_b=4, m_u=2, n=16, n_h=4, n_v=4)
FULL = dataclasses.asdict(full_config())


def _assert_kkt(cfg, lam, info):
    """Per BS: asleep within budget, or live at its budget to EPS1."""
    p_max = np.asarray(cfg.p_max)
    ratio = info["power"] / p_max
    for l in range(cfg.l):
        if lam[l] == 0.0:
            assert ratio[l] <= 1.0 + 1e-9, (l, ratio[l])
        else:
            assert abs(ratio[l] - 1.0) <= tx_opt.EPS1, (l, ratio[l])


# ---- Newton dual ----

def test_form_solve_returns_the_inverse_and_the_power_jacobian():
    for seed, over in ((0, DESK), (1, FULL)):
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed, **over)
        form = QuadraticForm.build(h, aux, cfg.l)
        lam = np.linspace(0.5, 2.0, cfg.l)
        rows = form.solve(lam).reshape(cfg.l * cfg.m_b, -1)
        m = form.a + np.diag(np.repeat(lam, cfg.m_b))
        np.testing.assert_allclose(form.inverse @ m, np.eye(cfg.l * cfg.m_b), atol=1e-9)
        jac = tx_opt._power_jacobian(form, rows @ rows.conj().T)
        np.testing.assert_allclose(jac, jac.T, rtol=1e-10, atol=1e-12 * np.abs(jac).max())
        assert np.linalg.eigvalsh(jac).max() <= 1e-12 * np.abs(jac).max()
        # Central differences of the per-BS powers in each multiplier.
        for m_idx in range(cfg.l):
            d = np.zeros(cfg.l)
            d[m_idx] = 1e-6 * lam[m_idx]
            up = BeamformerSet(w=form.solve(lam + d), l=cfg.l).per_bs_power()
            dn = BeamformerSet(w=form.solve(lam - d), l=cfg.l).per_bs_power()
            fd = (up - dn) / (2.0 * d[m_idx])
            np.testing.assert_allclose(jac[:, m_idx], fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max())


@pytest.mark.parametrize("over", [DESK, FULL], ids=["desk", "full"])
def test_newton_dual_meets_kkt(over):
    for seed in range(4):
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed + 100, **over)
        got, lam, info = tx_opt.optimize_w(h, aux, cfg)
        assert info["converged"]
        BeamformerSet(w=got, l=cfg.l).validate(cfg.p_max)
        _assert_kkt(cfg, lam, info)


@pytest.mark.parametrize("over, seeds", [(DESK, range(20)), (FULL, range(20, 23))],
                         ids=["desk", "full"])
def test_newton_dual_f5_not_above_reference(over, seeds):
    for seed in seeds:
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed, **over)
        w1, d1, i1 = tx_opt.optimize_w(h, aux, cfg)
        ref = _reference_optimize_w(h, aux, cfg)
        assert i1["converged"]
        assert i1["f5"] <= ref + 1e-9 * abs(ref), (seed, i1["f5"], ref)
        # Warm start, as in the outer loop: new auxiliaries at the new
        # precoders, the previous multipliers and block ascent on w_prev.
        aux2 = build_aux(cfg, h, w1)
        _, d2, i2 = tx_opt.optimize_w(h, aux2, cfg, lam=d1, w_prev=w1)
        ref2 = _reference_optimize_w(h, aux2, cfg, lam0=d1, w_prev=w1)
        assert i2["converged"]
        assert i2["f5"] <= ref2 + 1e-9 * abs(ref2), (seed, i2["f5"], ref2)
        _assert_kkt(cfg, d2, i2)


def test_newton_dual_sleeps_and_wakes():
    # Full scale, where no BS can serve every stream alone (m_b < K m_u), so
    # the precoders at lambda_0 = 0 are unique.
    cfg, ch, theta, w, h, aux = _instance_with_aux(1, **FULL)
    _, dual, info = tx_opt.optimize_w(h, aux, cfg)
    assert (dual > 0).all()
    # BS 0 at a thousand times the power it uses at the optimum: slack, asleep.
    loose = cfg.with_(p_max=(1e3 * info["power"][0],) + tuple(cfg.p_max[1:]))
    _, d_loose, i_loose = tx_opt.optimize_w(h, aux, loose, lam=dual)
    assert i_loose["converged"]
    assert d_loose[0] == 0.0 and (d_loose[1:] > 0).all()
    _assert_kkt(loose, d_loose, i_loose)
    ref = _reference_optimize_w(h, aux, loose)
    assert i_loose["f5"] <= ref + 1e-9 * abs(ref)
    # Then half the power it used asleep: it wakes and meets its budget.
    tight = cfg.with_(p_max=(0.5 * i_loose["power"][0],) + tuple(cfg.p_max[1:]))
    _, d_tight, i_tight = tx_opt.optimize_w(h, aux, tight, lam=d_loose)
    assert i_tight["converged"]
    assert (d_tight > 0).all()
    _assert_kkt(tight, d_tight, i_tight)
    ref = _reference_optimize_w(h, aux, tight)
    assert i_tight["f5"] <= ref + 1e-9 * abs(ref)


@pytest.mark.parametrize("over", [DESK, FULL], ids=["desk", "full"])
def test_newton_dual_at_one_factorization(over, monkeypatch):
    monkeypatch.setattr(tx_opt, "MAX_DUAL", 1)
    for seed in (7, 8):
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed, **over)
        got, dual, info = tx_opt.optimize_w(h, aux, cfg)
        assert info["iterations"] == 1
        assert not info["converged"]
        assert np.isfinite(got).all()
        assert (BeamformerSet(w=got, l=cfg.l).per_bs_power()
                <= np.asarray(cfg.p_max) * (1.0 + 1e-9)).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    log_p=st.lists(st.floats(-8.0, 4.0), min_size=3, max_size=3),
    log_sigma2=st.floats(-16.0, -9.0),
)
def test_optimize_w_finite_feasible_and_no_worse_than_zero(seed, log_p, log_sigma2):
    p_max = tuple(10.0 ** np.asarray(log_p))
    cfg, ch, theta, w, h = build_instance(seed, **DESK, p_max=p_max, sigma2=10.0 ** log_sigma2)
    w = model.matched_filter_init(h, cfg.p_max)
    try:
        aux = build_aux(cfg, h, w)
        got, dual, info = tx_opt.optimize_w(h, aux, cfg, w_prev=w)
    except np.linalg.LinAlgError:
        return
    assert np.isfinite(got).all()
    assert (BeamformerSet(w=got, l=cfg.l).per_bs_power()
            <= np.asarray(cfg.p_max) * (1.0 + 1e-9)).all()
    form = QuadraticForm.build(h, aux, cfg.l)
    assert info["f5"] == form.value(got)
    assert info["f5"] <= min(0.0, form.value(w))
