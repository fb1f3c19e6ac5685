import numpy as np
import pytest

from cfirs import fp_core, model, tx_opt
from cfirs.fp_core import AuxState
from cfirs.model import BeamformerSet
from cfirs.tx_opt import DualState, QuadraticForm

from conftest import build_instance, crandn


def pgd_reference(h, aux, p_max, iters=4000):
    """Independent projected-gradient solver for the precoder subproblem."""
    form = QuadraticForm.build(h, aux)
    L, Mb = form.l, form.m_b
    K, Mu = form.c.shape[0], form.c.shape[2]
    eigmax = float(np.linalg.eigvalsh(form.a).max())
    step = 1.0 / max(eigmax, 1e-30)
    ws = np.zeros((K, L * Mb, Mu), complex)
    for _ in range(iters):
        grad = np.einsum("ab,kbv->kav", form.a, ws) - form.c
        ws = ws - step * grad
        blocks = ws.reshape(K, L, Mb, Mu)
        power = np.sum(np.abs(blocks) ** 2, axis=(0, 2, 3))
        for l in range(L):
            if power[l] > p_max[l]:
                blocks[:, l] *= np.sqrt(p_max[l] / power[l])
        ws = blocks.reshape(K, L * Mb, Mu)
    w = ws.reshape(K, L, Mb, Mu).transpose(1, 0, 2, 3)
    return BeamformerSet(w=w), form.value(w)


def _instance_with_aux(seed, **over):
    cfg, ch, theta, w, h = build_instance(seed, **over)
    aux = fp_core.optimal_aux(h, w, cfg.sigma2)
    return cfg, ch, theta, w, h, aux


# ---- objective ----

def test_f5_zero_at_zero():
    cfg, ch, theta, w, h, aux = _instance_with_aux(0)
    assert QuadraticForm.build(h, aux).value(BeamformerSet(w=np.zeros_like(w.w))) == 0.0


def test_f5_f4_difference_identity():
    rng = np.random.default_rng(1)
    cfg, ch, theta, w, h, aux = _instance_with_aux(1)
    w1 = BeamformerSet(w=0.3 * crandn(rng, w.w.shape))
    w2 = BeamformerSet(w=0.3 * crandn(rng, w.w.shape))
    d4 = (fp_core.eval_f4(w1, theta, aux, ch, cfg.sigma2)
          - fp_core.eval_f4(w2, theta, aux, ch, cfg.sigma2))
    form = QuadraticForm.build(h, aux)
    d5 = form.value(w2) - form.value(w1)
    assert d4 == pytest.approx(d5, rel=1e-9)


def test_f5_scalar_quadratic():
    cfg, ch, _, _, _ = build_instance(2, l=1, k=1, m_b=1, m_u=1, r=0)
    h = model.effective_channel(ch, None)
    aux = AuxState(u=np.array([[[0.8]]], complex), y=np.array([[[0.4 - 0.2j]]]))
    hval = h[0, 0, 0, 0]
    ubar = 1.8
    a = np.abs(hval) ** 2 * np.abs(0.4 - 0.2j) ** 2 * ubar
    b = hval * (0.4 - 0.2j) * ubar  # linear coefficient: -2 Re{b^* w}
    form = QuadraticForm.build(h, aux)
    for wval in (0.1 + 0.2j, -0.5j, 1.0):
        w = BeamformerSet(w=np.full((1, 1, 1, 1), wval))
        expected = a * np.abs(wval) ** 2 - 2 * np.real(np.conj(b) * wval)
        assert form.value(w) == pytest.approx(expected, rel=1e-12)
    # minimizer of the scalar quadratic
    w_star = b / a
    got = BeamformerSet(w=form.solve(np.zeros(1)))
    assert got.w[0, 0, 0, 0] == pytest.approx(w_star, rel=1e-9)


# ---- primal update ----

def test_primal_regularization_shrinks_norm():
    cfg, ch, theta, w, h, aux = _instance_with_aux(3)
    lams = [0.0, 1.0, 10.0, 1e3, 1e6]
    norms = []
    for lam in lams:
        got = BeamformerSet(w=QuadraticForm.build(h, aux).solve(np.full(cfg.l, lam)))
        norms.append(np.linalg.norm(got.w))
    assert all(norms[i] > norms[i + 1] for i in range(len(norms) - 1))
    assert norms[-1] < 1e-4 * norms[0]


def test_primal_scalar_closed_form():
    cfg, ch, _, _, _ = build_instance(4, l=1, k=1, m_b=1, m_u=1, r=0)
    h = model.effective_channel(ch, None)
    y, ubar = 0.3 + 0.5j, 2.0
    aux = AuxState(u=np.array([[[ubar - 1.0]]], complex), y=np.array([[[y]]]))
    lam = 0.7
    got = BeamformerSet(w=QuadraticForm.build(h, aux).solve(np.array([lam])))
    hv = h[0, 0, 0, 0]
    expected = hv * y * ubar / (np.abs(hv) ** 2 * np.abs(y) ** 2 * ubar + lam)
    assert got.w[0, 0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_primal_is_lagrangian_stationary_point():
    rng = np.random.default_rng(7)
    cfg, ch, theta, w, h, aux = _instance_with_aux(5)
    lam = np.ones(cfg.l)
    form = QuadraticForm.build(h, aux)
    got = BeamformerSet(w=form.solve(lam))

    def lagrangian(warr):
        val = form.value(warr)
        power = np.sum(np.abs(warr) ** 2, axis=(1, 2, 3))
        return val + np.dot(lam, power - np.asarray(cfg.p_max))

    base_scale = max(1.0, abs(lagrangian(got.w)))
    eps = 1e-6
    for _ in range(5):
        d = crandn(rng, got.w.shape)
        d /= np.linalg.norm(d)
        deriv = (lagrangian(got.w + eps * d) - lagrangian(got.w - eps * d)) / (2 * eps)
        assert abs(deriv) < 1e-5 * base_scale


def test_power_monotone_in_own_multiplier():
    cfg, ch, theta, w, h, aux = _instance_with_aux(6)
    form = QuadraticForm.build(h, aux)
    for l in range(cfg.l):
        prev = np.inf
        for lam_l in [0.0, 0.1, 1.0, 10.0, 100.0]:
            lam = np.full(cfg.l, 0.5)
            lam[l] = lam_l
            wl = form.solve(lam)[l]
            power = float(np.sum(np.abs(wl) ** 2))
            assert power <= prev + 1e-12
            prev = power


# ---- full subproblem solver ----

def test_optimize_w_inactive_constraint():
    cfg, ch, theta, w, h, aux = _instance_with_aux(8)
    cfg_loose = cfg.with_(p_max=(1e9,) * cfg.l)
    got, dual, info = tx_opt.optimize_w(h, aux, cfg_loose)
    assert info["converged"]
    np.testing.assert_allclose(dual.lam, 0.0, atol=1e-9)
    unconstrained = BeamformerSet(w=QuadraticForm.build(h, aux).solve(np.zeros(cfg.l)))
    np.testing.assert_allclose(got.w, unconstrained.w, rtol=1e-6)


def test_optimize_w_active_constraint():
    cfg, ch, theta, w, h, aux = _instance_with_aux(9)
    got, dual, info = tx_opt.optimize_w(h, aux, cfg)
    power = got.per_bs_power()
    # tight budgets: every BS transmits at its cap
    np.testing.assert_allclose(power, np.asarray(cfg.p_max), rtol=1e-3)
    got.validate(cfg.p_max)


def test_optimize_w_block_ascent():
    for seed in range(5):
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed + 40)
        before = fp_core.eval_f4(w, theta, aux, ch, cfg.sigma2)
        got, _, _ = tx_opt.optimize_w(h, aux, cfg, w_prev=w)
        after = fp_core.eval_f4(got, theta, aux, ch, cfg.sigma2)
        assert after >= before - 1e-9 * max(1.0, abs(before))


def test_optimize_w_feasible_and_slack():
    for seed in range(5):
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed + 60)
        got, dual, info = tx_opt.optimize_w(h, aux, cfg)
        got.validate(cfg.p_max)
        assert np.max(np.abs(info["slackness"])) < 1e-4 * min(cfg.p_max)


def test_optimize_w_matches_projected_gradient():
    for seed in range(5):
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed + 80)
        got, _, info = tx_opt.optimize_w(h, aux, cfg)
        _, ref_value = pgd_reference(h, aux, np.asarray(cfg.p_max))
        assert info["f5"] == pytest.approx(ref_value, rel=1e-4, abs=1e-9)


def test_bisection_fallback_agrees():
    # One sub-gradient step cannot settle the multipliers, so the bisection
    # fallback finishes the solve; it must land on the same optimum.
    for seed in range(10, 14):
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed)
        _, _, info_s = tx_opt.optimize_w(h, aux, cfg)
        _, _, info_b = tx_opt.optimize_w(h, aux, cfg.with_(max_dual=1))
        assert info_b["iterations"] > 1
        assert info_s["f5"] == pytest.approx(info_b["f5"], rel=1e-4)
        assert np.max(np.abs(info_b["slackness"])) < 1e-6


# ---- reference multiplier loop ----

class _ReferenceForm:
    """QuadraticForm pieces with the solve written as A + diag(repeat(lam))."""

    def __init__(self, form):
        self.form, self.l, self.m_b = form, form.l, form.m_b

    def solve(self, lam):
        dim = self.l * self.m_b
        reg = np.repeat(np.asarray(lam, float), self.m_b)
        m = self.form.a + np.diag(reg)
        K, Mu = self.form.c.shape[0], self.form.c.shape[2]
        rhs = self.form.c.transpose(1, 0, 2).reshape(dim, K * Mu)
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            sol = tx_opt._floored_solve(m, rhs)
        if not np.isfinite(sol).all():
            sol = tx_opt._floored_solve(m, rhs)
        ws = sol.reshape(dim, K, Mu).transpose(1, 0, 2)
        return ws.reshape(K, self.l, self.m_b, Mu).transpose(1, 0, 2, 3)


def _reference_optimize_w(h, aux, config, dual=None, w_prev=None, events=None):
    """optimize_w with every multiplier, step size and sign held in numpy
    arrays and updated for all BSs at once. ``events`` collects, per
    iteration, which multipliers sleep (at or below the floor) and which wake."""
    form = QuadraticForm.build(h, aux)
    ref = _ReferenceForm(form)
    p_max = np.asarray(config.p_max, float)
    c_bs = form.c.reshape(-1, config.l, config.m_b, form.c.shape[2])
    lam_scale = np.sqrt(np.sum(np.abs(c_bs) ** 2, axis=(0, 2, 3)) / p_max)
    lam_scale = np.maximum(lam_scale, 1e-30)
    if dual is None:
        dual = DualState(lam=lam_scale.copy(), tau=np.asarray(config.tau, float))
    lam = dual.lam.copy()
    tau = dual.tau.copy()
    lam_floor = 1e-14 * lam_scale
    tau_cap = 1e9 * np.asarray(config.tau, float)
    prev_sign = np.zeros(config.l)
    converged = False
    iters = 0
    for iters in range(1, config.max_dual + 1):
        lam_eff = np.where(lam > lam_floor, lam, 0.0)
        w = ref.solve(lam_eff)
        power = np.sum(np.abs(w) ** 2, axis=(1, 2, 3))
        f_l = power - p_max
        sign = np.sign(f_l)
        flip = (sign * prev_sign) < 0
        same = (sign * prev_sign) > 0
        tau[flip] *= 0.5
        tau[same] = np.minimum(tau[same] * 2.0, tau_cap[same])
        prev_sign = sign
        anchor = np.maximum(lam, lam_floor)
        raw = anchor + tau * f_l
        lam_new = np.clip(raw, anchor / 10.0, anchor * 10.0)
        wake = (lam <= lam_floor) & (f_l > 0)
        if events is not None:
            events.append((lam <= lam_floor, wake))
        lam_new[wake] = np.maximum(lam_new[wake], lam_scale[wake])
        lam_new = np.maximum(lam_new, lam_floor)
        new_eff = np.where(lam_new > lam_floor, lam_new, 0.0)
        ok = True
        for new, old in zip(new_eff, lam_eff):
            if new > config.eps1:
                ok &= abs(new - old) / new < config.eps1
            else:
                ok &= abs(new - old) < config.eps1
        lam = lam_new
        if ok:
            converged = True
            break
    lam = np.where(lam > lam_floor, lam, 0.0)
    if not converged:
        lam, extra = tx_opt._bisection_duals(ref, lam, p_max)
        iters += extra
        converged = True
    cutoff = np.maximum(1e-2 * lam_scale, 10.0 * config.eps1)
    small = (lam > 0.0) & (lam < cutoff)
    if small.any():
        trial = np.where(small, 0.0, lam)
        trial_power = np.sum(np.abs(ref.solve(trial)) ** 2, axis=(1, 2, 3))
        if (trial_power <= p_max * (1.0 + 1e-9)).all():
            lam = trial
    w = ref.solve(lam)
    dual = DualState(lam=lam, tau=tau, iteration=dual.iteration + iters)
    w = tx_opt._enforce_power(w, p_max)
    if w_prev is not None:
        w_prev_arr = model._w_array(w_prev)
        if form.value(w_prev_arr) < form.value(w):
            w = w_prev_arr.copy()
    info = {"iterations": int(dual.iteration), "converged": bool(converged), "f5": form.value(w)}
    return BeamformerSet(w=w), dual, info


def _assert_same_solve(h, aux, cfg, dual=None, w_prev=None):
    w_ref, d_ref, i_ref = _reference_optimize_w(h, aux, cfg, dual, w_prev)
    w_new, d_new, i_new = tx_opt.optimize_w(h, aux, cfg, dual, w_prev)
    assert np.array_equal(w_new.w, w_ref.w)
    assert np.array_equal(d_new.lam, d_ref.lam)
    assert np.array_equal(d_new.tau, d_ref.tau)
    assert i_new["iterations"] == i_ref["iterations"]
    assert i_new["converged"] == i_ref["converged"]
    assert i_new["f5"] == i_ref["f5"]
    return d_new, i_new


DESK = dict(l=3, k=2, r=2, m_b=4, m_u=2, n=16, n_h=4, n_v=4)
FULL = dict(l=6, k=4, r=3, m_b=4, m_u=2, n=60, n_h=10, n_v=6)


@pytest.mark.parametrize("scale, seeds", [("small", (0, 1)), ("desk", (2, 3, 4)), ("full", (5, 6))])
def test_dual_loop_matches_reference(scale, seeds):
    over = {"small": {}, "desk": DESK, "full": FULL}[scale]
    for seed in seeds:
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed, **over)
        _assert_same_solve(h, aux, cfg)
        # Warm start and block-ascent comparison, as in the outer loop.
        w1, d1, _ = tx_opt.optimize_w(h, aux, cfg)
        _assert_same_solve(h, aux, cfg, DualState(d1.lam, np.asarray(cfg.tau, float)), w_prev=w1)


def test_dual_loop_matches_reference_through_sleep_and_wake():
    # BS 2 gets 0.9 of its unconstrained power, the others keep loose
    # budgets; with eps1 = 1e-12 their multipliers decay to the floor
    # (sleep), the coupled powers later push them over budget and they
    # wake, before the loop settles within max_dual.
    cfg, ch, theta, w, h, aux = _instance_with_aux(1, **DESK)
    free = np.sum(np.abs(QuadraticForm.build(h, aux).solve(np.zeros(cfg.l))[2]) ** 2)
    cfg = cfg.with_(p_max=tuple(cfg.p_max[:2]) + (0.9 * free,), eps1=1e-12)
    events = []
    _reference_optimize_w(h, aux, cfg, events=events)
    assert len(events) < cfg.max_dual
    asleep = np.array([a for a, _ in events])
    woke = np.array([wk for _, wk in events])
    for l in (0, 1):
        assert asleep[:, l].any()
        assert woke[:, l].any()
        assert np.flatnonzero(woke[:, l]).max() > np.flatnonzero(asleep[:, l]).min()
    _assert_same_solve(h, aux, cfg)


def test_dual_loop_matches_reference_at_step_cap():
    # BS 0 at three times its unconstrained power is slack throughout, so its
    # violation keeps one sign and its step size doubles up to the cap; with
    # eps1 = 1e-12 the loop runs out of max_dual and bisection finishes.
    cfg, ch, theta, w, h, aux = _instance_with_aux(1, **DESK)
    free = np.sum(np.abs(QuadraticForm.build(h, aux).solve(np.zeros(cfg.l))[0]) ** 2)
    cfg = cfg.with_(p_max=(3.0 * free,) + tuple(cfg.p_max[1:]), eps1=1e-12)
    dual, info = _assert_same_solve(h, aux, cfg)
    assert dual.tau[0] == 1e9 * cfg.tau[0]
    assert info["iterations"] > cfg.max_dual


def test_dual_loop_matches_reference_on_bisection_fallback():
    for seed, over in ((7, DESK), (8, FULL)):
        cfg, ch, theta, w, h, aux = _instance_with_aux(seed, **over)
        _, info = _assert_same_solve(h, aux, cfg.with_(max_dual=1))
        assert info["iterations"] > 1
