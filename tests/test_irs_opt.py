import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfirs import irs_opt, model
from cfirs.config import desk_config, full_config
from conftest import (
    aso_coordinate, build_aux, build_instance, cmcqp, crandn, f4_at, per_link, synthetic_cmcqp,
)


def _system_cmcqp(seed, **over):
    cfg, ch, theta, w, h = build_instance(seed, **over)
    aux = build_aux(cfg, h, w)
    data = irs_opt.build_cmcqp(ch, w, aux)
    return cfg, ch, theta, w, aux, data


def _dense_forms(ch, w, aux):
    """Z, Q, A and E of the build_cmcqp docstring, each formed as an RN x RN
    matrix straight from its definition."""
    st = ch
    warr = per_link(w, ch.direct.shape[0])
    K = warr.shape[1]
    ws = [np.vstack(warr[:, i]) for i in range(K)]  # W[:, i] stacked over BSs
    wcov = sum(wi @ wi.conj().T for wi in ws)
    s_h = st.s.conj().T
    gyu = [st.g[:, k] @ aux.y[k] @ aux.ubar[k] for k in range(K)]
    z = sum(gyu[k] @ aux.y[k].conj().T @ st.g[:, k].conj().T for k in range(K))
    q = st.s @ wcov @ s_h
    a = sum(gyu[k] @ aux.y[k].conj().T @ st.d[:, k].conj().T @ wcov @ s_h for k in range(K))
    e = sum(gyu[k] @ ws[k].conj().T @ s_h for k in range(K))
    return z, q, a, e


# ---- construction ----

def test_hadamard_trace_identity():
    rng = np.random.default_rng(0)
    nn = 6
    for _ in range(10):
        m1 = crandn(rng, (nn, 2 * nn))
        z = m1 @ m1.conj().T
        m2 = crandn(rng, (nn, 2 * nn))
        q = m2 @ m2.conj().T
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, nn))
        th = np.diag(theta)
        lhs = np.trace(th.conj().T @ z @ th @ q)
        rhs = theta.conj() @ (z * q.T) @ theta
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) < 1e-10 * scale


def test_build_zero_beamformers():
    cfg, ch, theta, w, h = build_instance(0)
    aux = build_aux(cfg, h, w)
    zero_w = np.zeros_like(w)
    data = irs_opt.build_cmcqp(ch, zero_w, aux)
    np.testing.assert_allclose(data.zcal, 0.0, atol=1e-30)
    np.testing.assert_allclose(data.omega, 0.0, atol=1e-30)
    assert irs_opt.eval_f7(theta, data) == 0.0


def test_build_is_hermitian_psd():
    for seed in range(5):
        cfg, ch, theta, w, aux, data = _system_cmcqp(seed, r=2, n=4, n_h=2, n_v=2)
        assert np.max(np.abs(data.zcal - data.zcal.conj().T)) < 1e-10
        eigs = np.linalg.eigvalsh(data.zcal)
        assert eigs.min() > -1e-8 * max(eigs.max(), 1e-30)


def test_phase_objective_tracks_surrogate_differences():
    for seed in range(5):
        cfg, ch, theta, w, aux, data = _system_cmcqp(seed, r=2, n=4, n_h=2, n_v=2)
        rng = np.random.default_rng(seed)
        t1 = cfg.alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.n_irs_total))
        t2 = cfg.alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.n_irs_total))
        d4 = (f4_at(w, t1, aux, ch, cfg.sigma2)
              - f4_at(w, t2, aux, ch, cfg.sigma2))
        d7 = irs_opt.eval_f7(t1, data) - irs_opt.eval_f7(t2, data)
        assert d7 == pytest.approx(d4, rel=1e-8)


def test_f7_trace_form_oracle():
    cfg, ch, theta, w, aux, data = _system_cmcqp(1, r=2, n=4, n_h=2, n_v=2)
    z, q, a, e = _dense_forms(ch, w, aux)
    th = np.diag(theta)
    om = e - a
    expected = (
        np.trace(th.conj().T @ om) + np.trace(om.conj().T @ th)
        - np.trace(th.conj().T @ z @ th @ q)
    ).real
    assert irs_opt.eval_f7(theta, data) == pytest.approx(expected, rel=1e-9)


def _assert_hermitian_to_rounding(zcal):
    # build_cmcqp leaves Zcal as its two products give it.
    assert np.max(np.abs(zcal - zcal.conj().T)) <= 1e-14 * np.max(np.abs(zcal))


# The full-scale scenario: 6 BSs x 4 antennas, 4 UEs x 2 antennas, 3 x 60
# elements (RN = 180).
FULL_SCALE = dataclasses.asdict(full_config())


def test_build_matches_dense_definition():
    cases = [(seed, dict(r=2, n=4, n_h=2, n_v=2)) for seed in range(4)]
    cases += [(0, FULL_SCALE), (1, dict(l=3, r=2, m_b=4, n=16, n_h=4, n_v=4, alpha=0.5))]
    for seed, over in cases:
        cfg, ch, theta, w, aux, data = _system_cmcqp(seed, **over)
        z, q, a, e = _dense_forms(ch, w, aux)
        dense_omega = np.diag(e - a)
        assert np.linalg.norm(data.omega - dense_omega) <= 1e-12 * np.linalg.norm(dense_omega)
        dense_zcal = z * q.T
        assert np.linalg.norm(data.zcal - dense_zcal) <= 1e-12 * np.linalg.norm(dense_zcal)
        _assert_hermitian_to_rounding(data.zcal)


@pytest.mark.parametrize("over", [
    dataclasses.asdict(desk_config(n=32, n_h=8, n_v=4)),  # RN = 64
    FULL_SCALE,
], ids=["desk", "full"])
def test_f7_is_every_solver_first_trace_entry(over):
    # One formula: the f7 a caller (the outer loop's guard) reads at the
    # start equals each solver's own starting value, bit for bit.
    for seed in range(3):
        _, _, theta, _, _, data = _system_cmcqp(seed, **over)
        f7 = irs_opt.eval_f7(theta, data)
        assert irs_opt.aso_solve(theta, data, max_sweeps=1)[1][0] == f7
        assert irs_opt.qcr_relax(theta, data, max_iter=1)[1][0] == f7


@pytest.mark.parametrize("over", [
    dataclasses.asdict(desk_config(n=32, n_h=8, n_v=4)),  # RN = 64
    FULL_SCALE,
], ids=["desk", "full"])
def test_build_into_workspace_matches_fresh_build(over):
    cfg, ch, theta, w, aux, fresh = _system_cmcqp(2, **over)
    rn = cfg.n_irs_total
    # Stale contents, a previous subproblem's included, must not leak.
    work = np.full((2, rn, rn), np.nan, complex)
    for w_in in (2.0 * w, w):
        got = irs_opt.build_cmcqp(ch, w_in, aux, work)
    assert np.array_equal(got.zcal, fresh.zcal)
    assert np.array_equal(got.omega, fresh.omega)
    _assert_hermitian_to_rounding(got.zcal)
    assert np.shares_memory(got.zcal, work[0])


def test_f7_nonpositive_without_linear_term(make_cmcqp):
    data = make_cmcqp(3)
    stripped = cmcqp(data.zcal, np.zeros_like(data.omega))
    rng = np.random.default_rng(0)
    for _ in range(10):
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, data.omega.size))
        assert irs_opt.eval_f7(theta, stripped) <= 1e-12


# ---- coordinate updates ----

def test_coordinate_update_real_target():
    data = cmcqp(np.array([[0.7]], complex), np.array([1.0 + 0j]))
    theta = np.array([np.exp(1j * 2.2)])
    out = aso_coordinate(theta, 0, data)
    assert out[0] == pytest.approx(1.0)


def test_coordinate_update_imaginary_target():
    nn = 3
    zcal = np.diag([0.5, 0.4, 0.3]).astype(complex)
    omega = np.array([0.0 + 2j, 1.0, 1.0])
    data = cmcqp(zcal, omega)
    theta = 0.9 * np.exp(1j * np.array([0.4, 0.8, 1.2]))
    out = aso_coordinate(theta, 0, data)
    assert out[0] == pytest.approx(0.9 * np.exp(1j * np.pi / 2))
    np.testing.assert_array_equal(out[1:], theta[1:])


def test_coordinate_update_zero_target_keeps_phase():
    data = cmcqp(np.zeros((1, 1), complex), np.zeros(1, complex))
    theta = np.array([np.exp(1j * 0.3)])
    out = aso_coordinate(theta, 0, data)
    assert out[0] == theta[0]


def test_coordinate_update_beats_fine_grid(make_cmcqp):
    grid = np.exp(1j * 2 * np.pi * np.arange(10_000) / 10_000)
    for seed in range(5):
        data = make_cmcqp(seed, nn=4)
        rng = np.random.default_rng(seed)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        for i in range(4):
            updated = aso_coordinate(theta, i, data)
            best_closed = irs_opt.eval_f7(updated, data)
            trial = theta.copy()
            best_grid = -np.inf
            for g in grid:
                trial[i] = g
                best_grid = max(best_grid, irs_opt.eval_f7(trial, data))
            assert best_closed >= best_grid - 1e-8


def test_coordinate_update_never_decreases(make_cmcqp):
    data = make_cmcqp(11, nn=6)
    rng = np.random.default_rng(1)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    value = irs_opt.eval_f7(theta, data)
    for sweep in range(3):
        for i in range(6):
            theta = aso_coordinate(theta, i, data)
            new_value = irs_opt.eval_f7(theta, data)
            assert new_value >= value - 1e-12 * max(1.0, abs(value))
            value = new_value


# ---- sweep solver ----

def test_sweep_decoupled_converges_in_one_pass():
    nn = 5
    rng = np.random.default_rng(2)
    zcal = np.diag(rng.uniform(0.5, 1.5, nn)).astype(complex)
    omega = crandn(rng, nn)
    data = cmcqp(zcal, omega)
    theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, nn))
    theta, trace = irs_opt.aso_solve(theta0, data, eps2=1e-12)
    # diagonal coupling: the first sweep already lands on the optimum
    np.testing.assert_allclose(theta, np.exp(1j * np.angle(omega)), rtol=1e-12)
    assert len(trace) <= 3


def test_sweep_monotone_trace(make_cmcqp):
    for seed in range(5):
        data = make_cmcqp(seed + 20, nn=8)
        rng = np.random.default_rng(seed)
        theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        theta, trace = irs_opt.aso_solve(theta0, data)
        diffs = np.diff(trace)
        assert (diffs >= -1e-12 * np.maximum(1.0, np.abs(trace[1:]))).all()
        np.testing.assert_allclose(np.abs(theta), 1.0, atol=1e-12)


def test_sweep_objective_upper_bound(make_cmcqp):
    for seed in range(5):
        data = make_cmcqp(seed + 40, nn=8)
        rng = np.random.default_rng(seed)
        alpha = 0.8
        theta0 = alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        theta, _ = irs_opt.aso_solve(theta0, data)
        bound = 2 * alpha * np.abs(data.omega).sum()
        assert irs_opt.eval_f7(theta, data) <= bound + 1e-12


def test_sweep_is_coordinatewise_optimal(make_cmcqp):
    data = make_cmcqp(60, nn=6)
    rng = np.random.default_rng(3)
    theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    theta, _ = irs_opt.aso_solve(theta0, data, eps2=1e-14, max_sweeps=500)
    base = irs_opt.eval_f7(theta, data)
    for i in range(6):
        improved = aso_coordinate(theta, i, data)
        assert irs_opt.eval_f7(improved, data) <= base + 1e-10


# ---- disc relaxation ----

def test_qcr_linear_objective():
    nn = 4
    rng = np.random.default_rng(4)
    omega = crandn(rng, nn)
    data = cmcqp(np.zeros((nn, nn), complex), omega)
    theta0 = 0.7 * np.exp(1j * rng.uniform(0, 2 * np.pi, nn))
    theta, relaxed, _ = irs_opt.qcr_solve(theta0, data)
    np.testing.assert_allclose(theta, 0.7 * np.exp(1j * np.angle(omega)), rtol=1e-10)


def test_qcr_boundary_when_linear_term_dominates(make_cmcqp):
    data = make_cmcqp(70, nn=6)
    lam_max = float(np.linalg.eigvalsh(data.zcal).max())
    strong = cmcqp(data.zcal, data.omega * (20 * 6 * lam_max / np.abs(data.omega).min()))
    rng = np.random.default_rng(5)
    theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    theta, relaxed, _ = irs_opt.qcr_solve(theta0, strong, max_iter=20000)
    np.testing.assert_allclose(np.abs(relaxed), 1.0, atol=1e-6)


def test_qcr_relaxed_iterates_ascend(make_cmcqp):
    data = make_cmcqp(80, nn=8)
    rng = np.random.default_rng(6)
    theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    _, trace = irs_opt.qcr_relax(theta0, data, max_iter=400)
    diffs = np.diff(trace)
    assert (diffs >= -1e-11 * np.maximum(1.0, np.abs(trace[1:]))).all()


def test_qcr_projected_point_is_feasible(make_cmcqp):
    data = make_cmcqp(90, nn=8)
    rng = np.random.default_rng(7)
    theta0 = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    theta, relaxed, _ = irs_opt.qcr_solve(theta0, data)
    np.testing.assert_allclose(np.abs(theta), 0.6, atol=1e-12)


def _rank_deficient_cmcqp(seed, nn=48, r=6):
    """Zcal = Z o Q^T with Z, Q rank-r Gram matrices, as build_cmcqp forms it.

    rank(Zcal) <= r^2 < nn, so f7 has flat directions and small curvatures
    that make plain projected gradient crawl (full scale: rank 64 of 180).
    """
    rng = np.random.default_rng(seed)
    m1 = crandn(rng, (nn, r))
    m2 = crandn(rng, (nn, r))
    z = m1 @ m1.conj().T
    q = m2 @ m2.conj().T
    zcal = z * q.T
    zcal = 0.5 * (zcal + zcal.conj().T)
    data = cmcqp(zcal, crandn(rng, nn))
    theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, nn))
    return data, theta0


def _plain_projected_gradient(theta, data, tol=1e-10, max_iter=5000):
    """Reference: unaccelerated projected gradient at the same step and stop rule."""
    theta = np.array(theta, copy=True)
    alpha = abs(theta[0])
    step = 1.0 / (2.0 * np.linalg.eigvalsh(data.zcal).max())
    trace = [irs_opt.eval_f7(theta, data)]
    for _ in range(max_iter):
        theta = theta + step * (data.omega - data.zcal @ theta)
        mags = np.abs(theta)
        over = mags > alpha
        theta[over] *= alpha / mags[over]
        trace.append(irs_opt.eval_f7(theta, data))
        if abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
            break
    return theta, trace


@pytest.mark.parametrize("seed", range(4))
def test_qcr_rank_deficient_stops_on_tolerance(seed):
    data, theta0 = _rank_deficient_cmcqp(seed)
    assert np.linalg.matrix_rank(data.zcal) <= 36
    max_iter = 5000
    relaxed, trace = irs_opt.qcr_relax(theta0, data, max_iter=max_iter)
    assert len(trace) - 1 < max_iter
    diffs = np.diff(trace)
    assert (diffs >= -1e-11 * np.maximum(1.0, np.abs(trace[1:]))).all()
    assert np.abs(relaxed).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_qcr_rank_deficient_beats_plain_projected_gradient(seed):
    data, theta0 = _rank_deficient_cmcqp(seed)
    relaxed, trace = irs_opt.qcr_relax(theta0, data, max_iter=5000)
    reference, _ = _plain_projected_gradient(theta0, data, max_iter=5000)
    f_ref = irs_opt.eval_f7(reference, data)
    f_new = irs_opt.eval_f7(relaxed, data)
    assert f_new >= f_ref - 1e-9 * abs(f_ref)
    # The objective read off the kept product Zcal theta is f7 itself.
    assert trace[-1] == pytest.approx(f_new, rel=1e-10)


def _row_sum_step(zcal):
    """s_i = 1 / (2 d_i) with d_i = sum_j |Zcal_ij| floored at 1e-12 max_i d_i."""
    d = np.abs(zcal).sum(axis=1)
    return 0.5 / np.maximum(d, 1e-12 * d.max())


def _reference_fista(theta, data, step, tol=1e-10, max_iter=5000):
    """The qcr_relax docstring step by step, on fresh arrays with a
    boolean-mask clip onto the discs; ``step`` is the per-element step
    vector (or one scalar step for every element)."""
    theta = np.array(theta, copy=True)
    alpha = np.abs(theta)[0]
    omega, zcal = data.omega, data.zcal

    def clip(v):
        mags = np.abs(v)
        over = mags > alpha
        v[over] *= alpha / mags[over]
        return v

    def f7(th, zth):
        return float(np.real(np.vdot(th, 2.0 * omega - zth)))

    zth = zcal @ theta
    prev, zprev, t = theta, zth, 1.0
    trace = [f7(theta, zth)]
    for _ in range(max_iter):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = theta + beta * (theta - prev)
        zy = zth + beta * (zth - zprev)
        cand = clip(y + step * (omega - zy))
        zcand = zcal @ cand
        if f7(cand, zcand) < trace[-1] and beta > 0.0:
            t_next = 1.0
            cand = clip(theta + step * (omega - zth))
            zcand = zcal @ cand
        prev, zprev = theta, zth
        theta, zth, t = cand, zcand, t_next
        trace.append(f7(theta, zth))
        if abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
            break
    return theta, trace


def _step_instances():
    for seed in range(4):
        yield _rank_deficient_cmcqp(seed)
    for seed, (nn, scale, alpha) in enumerate([(8, 1.0, 1.0), (12, 3.0, 0.7),
                                               (16, 0.3, 0.5), (24, 10.0, 1.0)]):
        rng = np.random.default_rng(seed + 300)
        yield synthetic_cmcqp(seed + 300, nn=nn, omega_scale=scale), \
            alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, nn))


def test_qcr_step_matches_reference_loop():
    # Same iterates and trace, bit for bit: the in-place step reuses and
    # rotates its buffers, so an aliasing slip shows up as a difference.
    count = 0
    for data, theta0 in _step_instances():
        relaxed, trace = irs_opt.qcr_relax(theta0, data, max_iter=3000)
        ref_theta, ref_trace = _reference_fista(theta0, data, _row_sum_step(data.zcal),
                                                max_iter=3000)
        assert trace == ref_trace
        assert np.array_equal(relaxed, ref_theta)
        count += 1
    assert count == 8


def _majorizer_instances():
    for over in ({}, dict(l=3, r=2, m_b=4, n=16, n_h=4, n_v=4),
                 dict(l=3, r=2, m_b=4, n=16, n_h=4, n_v=4, alpha=0.5)):
        for seed in range(2):
            yield _system_cmcqp(seed, **over)[-1]
    for seed in range(3):
        yield synthetic_cmcqp(seed + 400, nn=12)
    for seed in range(4):
        yield _rank_deficient_cmcqp(seed)[0]


def test_row_sums_majorize_zcal():
    count = 0
    for data in _majorizer_instances():
        d = np.abs(data.zcal).sum(axis=1)
        assert np.linalg.eigvalsh(np.diag(d) - data.zcal).min() >= -1e-12 * d.max()
        count += 1
    assert count == 13


def test_plain_row_sum_step_never_lowers_f7():
    # From random points inside the discs, one projected step at s_i = 1/(2 d_i).
    rng = np.random.default_rng(11)
    for data in _majorizer_instances():
        step = _row_sum_step(data.zcal)
        nn = data.omega.size
        for alpha in (1.0, 0.5):
            for _ in range(5):
                radius = alpha * np.sqrt(rng.uniform(0, 1, nn))
                theta = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, nn))
                new = theta + step * (data.omega - data.zcal @ theta)
                new *= alpha / np.maximum(np.abs(new), alpha)
                before, after = irs_opt.eval_f7(theta, data), irs_opt.eval_f7(new, data)
                assert after >= before - 1e-12 * max(1.0, abs(before))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tol, gap", [(1e-10, 1e-7), (1e-12, 1e-8)])
def test_qcr_reaches_lambda_max_fista_optimum(seed, tol, gap):
    # FISTA at the scalar step 1/(2 lambda_max), run at tol = 0 for up to
    # 50 000 steps, reaches the relaxed optimum; the row-sum step must reach
    # it too, up to where its stop rule ends. At the default tol both steps
    # stop 1e-9 to 3e-8 below it on these seeds.
    data, theta0 = _rank_deficient_cmcqp(seed)
    step = 1.0 / (2.0 * np.linalg.eigvalsh(data.zcal).max())
    ref_theta, _ = _reference_fista(theta0, data, step, tol=0.0, max_iter=50_000)
    relaxed, _ = irs_opt.qcr_relax(theta0, data, tol=tol)
    f_ref = irs_opt.eval_f7(ref_theta, data)
    assert irs_opt.eval_f7(relaxed, data) >= f_ref - gap * abs(f_ref)


def _decoupled_instances():
    # Element 2 has a zero row and column of Zcal with omega_2 != 0, element 5
    # one with omega_5 = 0; element 7 has a row 1e-20 of the largest.
    data = synthetic_cmcqp(500, nn=10)
    zcal, omega = data.zcal.copy(), data.omega.copy()
    zcal[[2, 5], :] = 0.0
    zcal[:, [2, 5]] = 0.0
    omega[5] = 0.0
    yield cmcqp(zcal, omega)
    scale = np.ones(10)
    scale[7] = 1e-20
    yield cmcqp(data.zcal * np.outer(scale, scale), data.omega)


@pytest.mark.parametrize("alpha", [1.0, 0.6])
def test_qcr_decoupled_elements_get_finite_steps(alpha):
    rng = np.random.default_rng(12)
    zero_row, tiny_row = _decoupled_instances()
    for data in (zero_row, tiny_row):
        theta0 = alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
        relaxed, trace = irs_opt.qcr_relax(theta0, data)
        assert np.isfinite(relaxed).all() and np.isfinite(trace).all()
        assert np.abs(relaxed).max() <= alpha * (1 + 1e-12)
        diffs = np.diff(trace)
        assert (diffs >= -1e-11 * np.maximum(1.0, np.abs(trace[1:]))).all()
        if data is zero_row:
            omega = data.omega[2]
            assert relaxed[2] == pytest.approx(alpha * omega / abs(omega), abs=1e-12)
            # Kept up to the clip of a start whose modulus rounds above alpha.
            assert relaxed[5] == pytest.approx(theta0[5], abs=1e-15)


# ---- semidefinite relaxation ----

def test_sdr_single_element_analytic():
    # 2x2 lifted problem: the optimum phase aligns with the linear coefficient
    rng = np.random.default_rng(8)
    for seed in range(5):
        z = rng.uniform(0.1, 2.0)
        omega = crandn(rng, 1)
        data = cmcqp(np.array([[z]], complex), omega)
        theta, sdp_value, converged = irs_opt.sdr_solve(
            data, alpha=1.0, n_randomizations=50, rng=np.random.default_rng(seed)
        )
        assert converged
        expected = np.exp(1j * np.angle(omega[0]))
        assert theta[0] == pytest.approx(expected, abs=1e-4)


def test_sdr_relaxation_upper_bounds_rounded(make_cmcqp):
    for seed in range(5):
        data = make_cmcqp(seed + 100, nn=6)
        alpha = 1.0
        theta, sdp_value, converged = irs_opt.sdr_solve(
            data, alpha, n_randomizations=100, rng=np.random.default_rng(seed)
        )
        lifted = np.concatenate([theta, [alpha]])
        nn = 6
        zbar = np.zeros((nn + 1, nn + 1), complex)
        zbar[:nn, :nn] = -data.zcal
        zbar[:nn, nn] = data.omega
        zbar[nn, :nn] = data.omega.conj()
        lam_min = float(np.linalg.eigvalsh(zbar).min())
        zhat = zbar - lam_min * np.eye(nn + 1)
        rounded = float(np.real(lifted.conj() @ zhat @ lifted))
        assert sdp_value >= rounded - 1e-6 * max(1.0, abs(sdp_value))


def _lifted_zhat(data, alpha):
    """Zhat of the sdr_solve docstring: the lift of f7 at [theta; alpha],
    shifted to be PSD."""
    nn = data.omega.size
    zbar = np.zeros((nn + 1, nn + 1), complex)
    zbar[:nn, :nn] = -data.zcal
    zbar[:nn, nn] = data.omega / alpha
    zbar[nn, :nn] = data.omega.conj() / alpha
    lam_min = float(np.linalg.eigvalsh(zbar).min())
    return zbar - lam_min * np.eye(nn + 1), lam_min


def test_sdr_mixing_contract(make_cmcqp):
    for seed, nn, alpha in [(111, 5, 0.9), (112, 6, 1.0), (113, 12, 0.5)]:
        data = make_cmcqp(seed, nn=nn)
        zhat, _ = _lifted_zhat(data, alpha)
        v, value, bound = irs_opt._mixing(zhat, alpha, np.random.default_rng(seed))
        # diag(V V^H) = alpha^2 exactly, and value is Tr(Zhat V V^H).
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), alpha, rtol=0, atol=1e-12)
        assert value == pytest.approx(np.vdot(v, zhat @ v).real, rel=1e-12)
        assert bound >= value
        assert bound - value <= 1e-6 * abs(bound)


def test_sdr_bound_matches_phase_grid_optimum_on_two_elements(make_cmcqp):
    # A 3 x 3 lift: complex SDR is tight, so the certified bound equals the
    # lifted value of the best theta, found on a phase grid and polished by ASO.
    grid = np.exp(2j * np.pi * np.arange(720) / 720)
    for seed, alpha in [(130, 1.0), (131, 0.7), (132, 0.3), (133, 1.0)]:
        data = make_cmcqp(seed, nn=2, omega_scale=2.0)
        t1, t2 = alpha * grid[:, None], alpha * grid[None, :]
        z, om = data.zcal, data.omega
        f = (2.0 * (t1.conj() * om[0] + t2.conj() * om[1]).real
             - (z[0, 0].real * alpha**2 + z[1, 1].real * alpha**2
                + 2.0 * (t1.conj() * z[0, 1] * t2).real))
        i, j = np.unravel_index(np.argmax(f), f.shape)
        best, _ = irs_opt.aso_solve(alpha * np.array([grid[i], grid[j]]), data, eps2=0.0)
        zhat, lam_min = _lifted_zhat(data, alpha)
        lifted_opt = irs_opt.eval_f7(best, data) - lam_min * 3 * alpha**2
        theta, sdp_value, converged = irs_opt.sdr_solve(
            data, alpha, rng=np.random.default_rng(seed))
        assert converged
        assert sdp_value == pytest.approx(lifted_opt, rel=1e-6)
        assert irs_opt.eval_f7(theta, data) == pytest.approx(
            irs_opt.eval_f7(best, data), rel=1e-6, abs=1e-9)


def test_sdr_reaches_multistart_aso_below_unit_efficiency():
    # The lift carries omega / alpha: with omega alone SDR maximizes
    # -theta^H Zcal theta + 2 alpha Re theta^H omega, not f7.
    alpha = 0.3
    rng = np.random.default_rng(3)
    f_sdr, f_aso = [], []
    for seed in range(300, 320):
        data = synthetic_cmcqp(seed, nn=6, omega_scale=3.0)
        theta, _, _ = irs_opt.sdr_solve(data, alpha, rng=np.random.default_rng(seed))
        f_sdr.append(irs_opt.eval_f7(theta, data))
        starts = alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, (30, 6)))
        f_aso.append(max(irs_opt.eval_f7(irs_opt.aso_solve(t0, data)[0], data)
                         for t0 in starts))
    assert np.mean(f_sdr) >= np.mean(f_aso) - 1e-6 * abs(np.mean(f_aso))


def test_sdr_rounding_keeps_the_leading_candidate(make_cmcqp):
    # The factor is drawn before the randomization, so with the same rng the
    # pool of n_randomizations=0 (the leading candidate alone) is a subset of
    # the default pool; each candidate is scored at its feasible projection.
    for seed in range(200, 240):
        data = make_cmcqp(seed, nn=6)
        lead, _, _ = irs_opt.sdr_solve(data, 1.0, n_randomizations=0,
                                       rng=np.random.default_rng(seed))
        theta, _, _ = irs_opt.sdr_solve(data, 1.0, rng=np.random.default_rng(seed))
        f_lead = irs_opt.eval_f7(lead, data)
        assert irs_opt.eval_f7(theta, data) >= f_lead - 1e-12 * max(1.0, abs(f_lead))


# ---- discrete phase grid ----

def test_discrete_rejects_tiny_grid(make_cmcqp):
    data = make_cmcqp(120, nn=4)
    theta = np.ones(4, complex)
    with pytest.raises(ValueError):
        irs_opt.discrete_sweep(theta, data, 1)


def test_discrete_high_resolution_approaches_continuous(make_cmcqp):
    for seed in range(5):
        data = make_cmcqp(seed + 130, nn=4)
        rng = np.random.default_rng(seed)
        theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        cont, _ = irs_opt.aso_solve(theta0, data, eps2=1e-14, max_sweeps=500)
        disc, _ = irs_opt.discrete_sweep(theta0, data, levels=2**16)
        assert irs_opt.eval_f7(disc, data) >= irs_opt.eval_f7(cont, data) - 1e-4


def test_discrete_fixed_point_of_joint_optimum(make_cmcqp):
    levels = 2
    grid = np.exp(2j * np.pi * np.arange(levels) / levels)
    for seed in range(5):
        data = make_cmcqp(seed + 140, nn=3)
        best_val, best_theta = -np.inf, None
        for combo in itertools.product(range(levels), repeat=3):
            theta = grid[list(combo)]
            val = irs_opt.eval_f7(theta, data)
            if val > best_val:
                best_val, best_theta = val, theta
        out, sweeps = irs_opt.discrete_sweep(best_theta, data, levels)
        np.testing.assert_array_equal(out, best_theta)
        assert irs_opt.eval_f7(out, data) == pytest.approx(best_val)


@pytest.mark.parametrize("levels", [2, 4, 8])
def test_discrete_random_start_ascends_to_grid_fixed_point(levels):
    grid = np.exp(2j * np.pi * np.arange(levels) / levels)
    for seed in range(5):
        data = synthetic_cmcqp(seed + 160, nn=8)
        rng = np.random.default_rng(seed)
        theta0 = grid[rng.integers(levels, size=8)]
        out, _ = irs_opt.discrete_sweep(theta0, data, levels)
        f_out = irs_opt.eval_f7(out, data)
        assert f_out >= irs_opt.eval_f7(theta0, data)
        # No single-coordinate move on the grid improves the result.
        tol = 1e-12 * max(1.0, abs(f_out))
        for i in range(8):
            trial = out.copy()
            for g in grid:
                trial[i] = g
                assert irs_opt.eval_f7(trial, data) <= f_out + tol


def _reference_ascend(theta0, data, best, eps2, max_sweeps):
    """Coordinate ascent with theta, omega and Zcal read as numpy scalars;
    stops after a sweep that moves f7 by at most eps2 * max(1, |f7(theta0)|)."""
    theta = np.array(theta0, dtype=complex, copy=True)
    trace = [irs_opt.eval_f7(theta, data)]
    zth = data.zcal @ theta
    for _ in range(max_sweeps):
        for i in range(theta.size):
            mu = data.omega[i] - zth[i] + data.zcal[i, i] * theta[i]
            new = best(mu, theta[i])
            if new != theta[i]:
                zth += data.zcal[:, i] * (new - theta[i])
                theta[i] = new
        trace.append(irs_opt.eval_f7(theta, data))
        if abs(trace[-1] - trace[-2]) <= eps2 * max(1.0, abs(trace[0])):
            break
    return theta, trace


def _reference_circle(alpha):
    return lambda mu, current: alpha * np.exp(1j * np.angle(mu)) if mu != 0 else current


def _reference_grid(alpha, levels):
    grid = alpha * np.exp(2j * np.pi * np.arange(levels) / levels)

    def best(mu, current):
        scores = np.real(grid.conj() * mu)
        top = scores.max()
        return grid[np.flatnonzero(scores >= top - 1e-12 * max(1.0, abs(top)))[0]]

    return best


def _ascent_instances():
    """(theta0, data): synthetic problems at two moduli, desk-scale
    subproblems (RN = 32) and one with a zero row, where mu_i = 0. Then, for
    the sweep's blocks of ceil(sqrt(RN)) coordinates, synthetic problems at
    RN = 1, 2, 7, 16, 50 and 180 (all blocks full at 1 and 16, a partial
    last block otherwise) and, from RN = 7 on, a copy with a zero row and
    column of Zcal and omega_i = 0 at the second coordinate of the second
    block; each at moduli 0.5, 1 and 2 with Zcal and omega scaled by 1e-6,
    1 and 1e6."""
    out = []
    for seed, alpha in ((0, 1.0), (1, 0.7), (2, 1.0)):
        rng = np.random.default_rng(seed)
        out.append((alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, 8)),
                    synthetic_cmcqp(seed + 300, nn=8)))
    for seed in (3, 4, 5):
        _, _, theta, _, _, data = _system_cmcqp(
            seed, l=3, k=2, r=2, m_b=4, m_u=2, n=16, n_h=4, n_v=4)
        out.append((theta, data))
    theta, data = out[0]
    zcal, omega = data.zcal.copy(), data.omega.copy()
    zcal[2, :] = zcal[:, 2] = 0.0
    omega[2] = 0.0
    out.append((theta, cmcqp(zcal, omega)))
    for nn in (1, 2, 7, 16, 50, 180):
        data = synthetic_cmcqp(400 + nn, nn=nn)
        problems = [(data.zcal, data.omega)]
        if nn >= 7:
            i = math.isqrt(nn - 1) + 2
            zcal, omega = data.zcal.copy(), data.omega.copy()
            zcal[i, :] = zcal[:, i] = 0.0
            omega[i] = 0.0
            problems.append((zcal, omega))
        phases = np.exp(1j * np.random.default_rng(nn).uniform(0, 2 * np.pi, nn))
        for (zcal, omega), alpha, scale in itertools.product(
                problems, (0.5, 1.0, 2.0), (1e-6, 1.0, 1e6)):
            out.append((alpha * phases, cmcqp(scale * zcal, scale * omega)))
    return out


def _assert_trace_end_is_f7(theta, trace, data):
    # The f7 read off the maintained Zcal theta is that of the returned theta.
    f7 = irs_opt.eval_f7(theta, data)
    assert abs(trace[-1] - f7) <= 1e-12 * max(1.0, abs(f7))


@pytest.mark.parametrize("levels", [2, 4, 8])
def test_discrete_sweep_matches_reference_loop(levels):
    for theta0, data in _ascent_instances():
        # The solvers read the modulus off |theta0[0]|, as the reference does.
        alpha = irs_opt._alpha_of(theta0)
        out, sweeps = irs_opt.discrete_sweep(theta0, data, levels)
        ref, trace = _reference_ascend(theta0, data, _reference_grid(alpha, levels), 0.0, 200)
        np.testing.assert_array_equal(out, ref)
        assert sweeps == len(trace) - 1
        rule = irs_opt._grid_rule(alpha, levels)
        _assert_trace_end_is_f7(*irs_opt._ascend(theta0, data, rule, 0.0, 200), data)
        # From its own output the first sweep moves nothing: f7 repeats exactly.
        _, again = irs_opt._ascend(out, data, rule, 0.0, 200)
        assert len(again) == 2 and again[1] == again[0]


@pytest.mark.parametrize("levels", [3, 16])
def test_discrete_sweep_matches_reference_loop_on_more_grids(levels):
    for theta0, data in _ascent_instances():
        alpha = irs_opt._alpha_of(theta0)
        out, sweeps = irs_opt.discrete_sweep(theta0, data, levels)
        ref, trace = _reference_ascend(theta0, data, _reference_grid(alpha, levels), 0.0, 200)
        np.testing.assert_array_equal(out, ref)
        assert sweeps == len(trace) - 1


def _full_scan(alpha, levels):
    """The grid rule scoring all M points in Python floats, the lowest index
    within the 1e-12 cut winning."""
    grid = (alpha * np.exp(2j * np.pi * np.arange(levels) / levels)).tolist()

    def best(mu, current):
        scores = [g.real * mu.real + g.imag * mu.imag for g in grid]
        cut = max(scores) - 1e-12 * max(1.0, abs(max(scores)))
        return next(g for g, score in zip(grid, scores) if score >= cut)

    return best


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("levels", [2, 3, 4, 8, 16])
def test_grid_rule_matches_full_scan(levels, alpha):
    # mu on every grid point and every bisector of two neighbours (exact
    # ties up to rounding: the lower index wins), in every direction, and at
    # magnitudes from 0 through the near-tie range of the cut up to 1e12.
    # The reference scores in Python floats, as the rule does: at mu ~ 1e-12
    # a score can sit on the cut within rounding, where numpy's complex
    # product may round the other way.
    rng = np.random.default_rng(levels)
    k = np.arange(2 * levels)
    directions = list(np.exp(1j * np.pi * k / levels))
    directions += list(np.exp(1j * rng.uniform(-np.pi, np.pi, 200)))
    directions += [1.0, -1.0, 1j, -1j, complex(-1.0, -0.0)]
    mags = [0.0, 1e-16, 1e-13, 1e-12, 1e-11, 1e-9, 1e-3, 1.0, 1e3, 1e12]
    rule, ref = irs_opt._grid_rule(alpha, levels), _full_scan(alpha, levels)
    for mag in mags:
        for d in directions:
            mu = complex(mag * d)
            assert rule(mu, None) == ref(mu, None), (mu, levels)
    assert rule(0j, None) == alpha


def test_aso_matches_reference_loop():
    for theta0, data in _ascent_instances():
        alpha = irs_opt._alpha_of(theta0)
        theta, trace = irs_opt.aso_solve(theta0, data)
        ref, ref_trace = _reference_ascend(
            theta0, data, _reference_circle(alpha), irs_opt.EPS2, 200)
        assert len(trace) == len(ref_trace)
        assert np.max(np.abs(theta - ref)) <= 1e-12 * alpha
        scale = max(1.0, np.max(np.abs(ref_trace)))
        assert np.max(np.abs(np.subtract(trace, ref_trace))) <= 1e-12 * scale
        _assert_trace_end_is_f7(theta, trace, data)


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.8, 2.0])
def test_circle_rule_within_one_ulp_of_complex_exp(alpha):
    rng = np.random.default_rng(7)
    axes = [1.0, -1.0, 1j, -1j, -1.0 - 0.0j, complex(-1.0, -0.0)]
    mus = [m * d for m in 10.0 ** np.arange(-8, 9) for d in axes]
    mus += list(10.0 ** rng.uniform(-8, 8, 2000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 2000)))
    rule = irs_opt._circle_rule(alpha)
    for mu in mus:
        got = rule(complex(mu), None)
        assert abs(got - alpha * np.exp(1j * np.angle(mu))) <= 2e-16 * alpha
    assert rule(0j, 0.3 + 0.4j) == 0.3 + 0.4j


def test_discrete_midpoint_tie_breaks_low():
    # target phase exactly between grid points 0 and 1 -> keep index 0
    levels = 4
    data = cmcqp(
        np.zeros((1, 1), complex),
        np.array([np.exp(1j * np.pi / levels)]),
    )
    theta0 = np.array([np.exp(1j * 2.0)])
    out, _ = irs_opt.discrete_sweep(theta0, data, levels)
    assert out[0] == pytest.approx(1.0)


def test_discrete_output_on_grid(make_cmcqp):
    data = make_cmcqp(150, nn=6)
    rng = np.random.default_rng(9)
    alpha = 0.75
    theta0 = alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    out, _ = irs_opt.discrete_sweep(theta0, data, levels=4)
    model.PhaseVector(theta=out, alpha=alpha).validate(discrete_levels=4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_solvers_return_constant_modulus(seed):
    data = synthetic_cmcqp(seed, nn=4)
    rng = np.random.default_rng(seed)
    theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    t1, _ = irs_opt.aso_solve(theta0, data, max_sweeps=20)
    t2, _, _ = irs_opt.qcr_solve(theta0, data, max_iter=200)
    t3, _ = irs_opt.discrete_sweep(theta0, data, levels=8, max_sweeps=20)
    for t in (t1, t2, t3):
        np.testing.assert_allclose(np.abs(t), 1.0, atol=1e-12)


def test_solver_ordering_against_random(make_cmcqp):
    rng_global = np.random.default_rng(1234)
    f_aso, f_sdr, f_rand = [], [], []
    for seed in range(50):
        data = synthetic_cmcqp(seed + 200, nn=6)
        theta0 = np.exp(1j * rng_global.uniform(0, 2 * np.pi, 6))
        t_aso, _ = irs_opt.aso_solve(theta0, data)
        t_sdr, _, _ = irs_opt.sdr_solve(data, 1.0, n_randomizations=100,
                                        rng=np.random.default_rng(seed))
        f_aso.append(irs_opt.eval_f7(t_aso, data))
        f_sdr.append(irs_opt.eval_f7(t_sdr, data))
        f_rand.append(irs_opt.eval_f7(theta0, data))
    assert np.mean(f_aso) > np.mean(f_rand)
    assert np.mean(f_sdr) > np.mean(f_rand)
