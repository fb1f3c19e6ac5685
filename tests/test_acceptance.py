"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

The statistical criteria run scaled-down Monte-Carlo studies with paired
seeds; geometry places the reflecting surfaces near the user cluster so the
reflected path carries visible weight at desk scale.
"""

import itertools
import time

import numpy as np
import pytest

from cfirs import channel as chan
from cfirs import irs_opt, model, pipeline, tx_opt
from cfirs.channel import Geometry
from cfirs.config import desk_config
from cfirs.pipeline import SchemeSpec

from conftest import aso_coordinate, build_aux, build_instance, f3_at, synthetic_cmcqp
from test_tx_opt import pgd_reference


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def acceptance_geometry(cfg, ue_center_x: float = 100.0) -> Geometry:
    geo = chan.default_geometry(cfg, ue_center_x=ue_center_x)
    if cfg.r > 1:
        irs_x = np.linspace(ue_center_x - 15, ue_center_x + 15, cfg.r)
    else:
        irs_x = np.full(cfg.r, ue_center_x)
    irs = np.column_stack([irs_x, np.full(cfg.r, 100.0), np.full(cfg.r, 6.0)])
    return Geometry(
        bs_positions=geo.bs_positions, irs_positions=irs,
        ue_positions=geo.ue_positions,
        ue_center_x=ue_center_x, ue_radius=geo.ue_radius,
    )


def _trend_config(**over):
    base = dict(l=3, k=2, r=2, m_b=4, m_u=2, n=16, n_h=4, n_v=4)
    base.update(over)
    return desk_config(**base)


def _paired_means(cfg, schemes, n_seeds=20, master_seed=11, n_starts=1):
    geo = acceptance_geometry(cfg)
    rows = pipeline.monte_carlo(cfg, geo, schemes, n_seeds=n_seeds,
                                master_seed=master_seed, n_starts=n_starts)
    return rows, pipeline.aggregate(rows)


def test_criterion_1_recovery_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        cfg, ch, theta, w, h = build_instance(seed, l=2, k=2, r=1,
                                              m_b=2, m_u=2, n=4, n_h=2, n_v=2)
        aux = build_aux(cfg, h, w)
        rate = model.sum_rate(ch, w, theta, cfg.sigma2)
        f3 = f3_at(w, theta, aux, ch, cfg.sigma2)
        worst = max(worst, abs(f3 - rate) / abs(rate))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _report(1, ok, f"surrogate == rate on 100 instances, worst rel err "
                   f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_outer_monotonicity():
    monotone_ok = 0
    converged = 0
    n = 50
    for seed in range(n):
        cfg, ch, _, _, _ = build_instance(seed + 300, l=2, k=2, r=1,
                                          m_b=2, m_u=2, n=4, n_h=2, n_v=2)
        _, _, trace = pipeline.joint_optimize(
            ch, cfg, SchemeSpec(solver="aso"), np.random.default_rng(seed)
        )
        rates = np.asarray(trace.sum_rate)
        if (np.diff(rates) >= -1e-9 * np.abs(rates[1:])).all():
            monotone_ok += 1
        if trace.converged and trace.iterations <= 50:
            converged += 1
    ok = monotone_ok == n and converged >= 0.95 * n
    _report(2, ok, f"monotone {monotone_ok}/{n}, converged within 50 "
                   f"iterations {converged}/{n}")


def test_criterion_3_per_coordinate_optimality():
    grid = np.exp(1j * 2 * np.pi * np.arange(10_000) / 10_000)
    failures = 0
    for seed in range(20):
        data = synthetic_cmcqp(seed + 1000, nn=8)
        rng = np.random.default_rng(seed)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        for i in range(8):
            closed = irs_opt.eval_f7(aso_coordinate(theta, i, data), data)
            trial = theta.copy()
            best = -np.inf
            for g in grid:
                trial[i] = g
                val = irs_opt.eval_f7(trial, data)
                if val > best:
                    best = val
            if closed < best - 1e-8:
                failures += 1
    _report(3, failures == 0,
            f"closed form vs 1e4-point grid on 20x8 coordinates, "
            f"{failures} failures")


def test_criterion_4_discrete_brute_force_oracle():
    levels = 4
    grid = np.exp(2j * np.pi * np.arange(levels) / levels)
    bound_ok = 0
    fixed_point_ok = 0
    reached_optimum = 0
    n = 50
    for seed in range(n):
        data = synthetic_cmcqp(seed + 2000, nn=3)
        rng = np.random.default_rng(seed)
        theta0 = grid[rng.integers(0, levels, 3)]
        swept, _ = irs_opt.discrete_sweep(theta0, data, levels)
        best_val, best_theta = -np.inf, None
        for combo in itertools.product(range(levels), repeat=3):
            theta = grid[list(combo)]
            val = irs_opt.eval_f7(theta, data)
            if val > best_val:
                best_val, best_theta = val, theta
        swept_val = irs_opt.eval_f7(swept, data)
        if swept_val <= best_val + 1e-12:
            bound_ok += 1
        if swept_val >= best_val - 1e-12:
            reached_optimum += 1
        refixed, _ = irs_opt.discrete_sweep(best_theta, data, levels)
        if np.array_equal(refixed, best_theta):
            fixed_point_ok += 1
    ok = bound_ok == n and fixed_point_ok == n
    _report(4, ok, f"brute force bound {bound_ok}/{n}, fixed point "
                   f"{fixed_point_ok}/{n}, sweep reached the optimum on "
                   f"{reached_optimum}/{n}")


def test_criterion_5_dual_method_against_projected_gradient():
    n = 50
    match = 0
    feasible = 0
    slack_ok = 0
    for seed in range(n):
        cfg, ch, theta, w, h = build_instance(seed + 500, l=2, k=2, r=1,
                                              m_b=2, m_u=2, n=4, n_h=2, n_v=2)
        aux = build_aux(cfg, h, w)
        got, dual, info = tx_opt.optimize_w(h, aux, cfg)
        _, ref_value = pgd_reference(h, aux, np.asarray(cfg.p_max))
        if abs(info["f5"] - ref_value) <= 1e-4 * max(abs(ref_value), 1e-12):
            match += 1
        power = model.BeamformerSet(w=got, l=cfg.l).per_bs_power()
        if (power <= np.asarray(cfg.p_max) + 1e-6).all():
            feasible += 1
        if np.max(np.abs(info["slackness"])) < 1e-4 * min(cfg.p_max):
            slack_ok += 1
    ok = match == n and feasible == n and slack_ok == n
    _report(5, ok, f"f5 matches reference {match}/{n}, feasible {feasible}/{n}, "
                   f"slackness {slack_ok}/{n}")


def test_criterion_6_scheme_ordering_across_array_sizes():
    start = time.perf_counter()
    schemes = [SchemeSpec(solver="aso"), SchemeSpec(solver="random"),
               SchemeSpec(solver="none")]
    sizes = {8: (4, 2), 16: (4, 4), 32: (4, 8)}
    aso_means = []
    ordering_ok = True
    paired_ok = True
    details = []
    for n, (nh, nv) in sizes.items():
        cfg = _trend_config(n=n, n_h=nh, n_v=nv)
        rows, agg = _paired_means(cfg, schemes, n_seeds=20, master_seed=11)
        aso_means.append(agg["ASO"]["mean"])
        ordering_ok &= agg["ASO"]["mean"] > agg["RANDOM"]["mean"] > agg["NONE"]["mean"]
        by_seed = {}
        for row in rows:
            by_seed.setdefault(row["seed"], {})[row["scheme"]] = row["sum_rate_bits"]
        frac = np.mean([d["ASO"] > d["RANDOM"] for d in by_seed.values()])
        paired_ok &= frac >= 0.8
        details.append(f"N={n}: ASO {agg['ASO']['mean']:.2f} > RANDOM "
                       f"{agg['RANDOM']['mean']:.2f} > NONE {agg['NONE']['mean']:.2f} "
                       f"(paired {frac:.0%})")
    increasing = all(aso_means[i] < aso_means[i + 1] for i in range(2))
    elapsed = time.perf_counter() - start
    ok = ordering_ok and paired_ok and increasing and elapsed < 300
    _report(6, ok, "; ".join(details) + f"; increasing={increasing}, {elapsed:.0f}s")


def test_criterion_7_pathloss_gap_collapse():
    gaps = []
    for exponent in (2.2, 2.8, 3.4):
        cfg = _trend_config(pathloss_irs=exponent)
        _, agg = _paired_means(
            cfg, [SchemeSpec(solver="aso"), SchemeSpec(solver="none")],
            n_seeds=20, master_seed=31,
        )
        gaps.append(agg["ASO"]["mean"] - agg["NONE"]["mean"])
    decreasing = gaps[0] > gaps[1] > gaps[2]
    collapsed = gaps[2] < 0.15 * gaps[0]
    ok = decreasing and collapsed
    _report(7, ok, f"gaps {[round(g, 3) for g in gaps]} decreasing={decreasing}, "
                   f"final/initial {gaps[2] / gaps[0]:.1%}")


def test_criterion_8_reflecting_efficiency_trend():
    means = []
    for alpha in (0.4, 0.7, 1.0):
        cfg = _trend_config(alpha=alpha)
        _, agg = _paired_means(cfg, [SchemeSpec(solver="aso")],
                               n_seeds=20, master_seed=47)
        means.append(agg["ASO"]["mean"])
    ok = means[0] < means[1] < means[2]
    _report(8, ok, f"mean rate vs efficiency {[round(m, 3) for m in means]}")


def test_criterion_9_discrete_resolution_ordering():
    cfg = _trend_config()
    schemes = [SchemeSpec(solver="aso"),
               SchemeSpec(solver="discrete", levels=2),
               SchemeSpec(solver="discrete", levels=4)]
    _, agg = _paired_means(cfg, schemes, n_seeds=20, master_seed=55)
    m2, m4, aso = (agg["DISCRETE-M2"]["mean"], agg["DISCRETE-M4"]["mean"],
                   agg["ASO"]["mean"])
    ok = m4 >= m2 and aso >= m4
    _report(9, ok, f"ASO {aso:.3f} >= M4 {m4:.3f} >= M2 {m2:.3f}")


def test_criterion_10_csi_error_robustness():
    cfg = _trend_config()
    means = []
    for rho in (0.0, 0.05, 0.1, 0.2):
        _, agg = _paired_means(
            cfg, [SchemeSpec(solver="aso", csi_error_rho=rho, label="ASO")],
            n_seeds=20, master_seed=68, n_starts=3,
        )
        means.append(agg["ASO"]["mean"])
    monotone = all(means[i] >= means[i + 1] - 1e-12 for i in range(3))
    within = means[2] >= 0.85 * means[0]
    ok = monotone and within
    _report(10, ok, f"means vs error ratio {[round(m, 3) for m in means]}, "
                    f"rho=0.1 at {means[2] / means[0]:.1%} of clean")


def test_criterion_11_relaxation_quality():
    bound_ok = 0
    f_aso, f_sdr = [], []
    n = 30
    for seed in range(n):
        cfg, ch, theta, w, h = build_instance(seed + 700, l=2, k=2, r=2,
                                              m_b=2, m_u=2, n=4, n_h=2, n_v=2)
        aux = build_aux(cfg, h, w)
        data = irs_opt.build_cmcqp(ch, w, aux)
        nn = data.omega.size
        t_sdr, sdp_value, _ = irs_opt.sdr_solve(
            data, cfg.alpha, rng=np.random.default_rng(seed)
        )
        lifted = np.concatenate([t_sdr, [cfg.alpha]])
        zbar = np.zeros((nn + 1, nn + 1), complex)
        zbar[:nn, :nn] = -data.zcal
        zbar[:nn, nn] = data.omega
        zbar[nn, :nn] = data.omega.conj()
        zhat = zbar - float(np.linalg.eigvalsh(zbar).min()) * np.eye(nn + 1)
        rounded = float(np.real(lifted.conj() @ zhat @ lifted))
        if sdp_value >= rounded - 1e-6 * max(1.0, abs(sdp_value)):
            bound_ok += 1
        t_aso, _ = irs_opt.aso_solve(theta, data)
        f_aso.append(irs_opt.eval_f7(t_aso, data))
        f_sdr.append(irs_opt.eval_f7(t_sdr, data))
    mean_aso, mean_sdr = np.mean(f_aso), np.mean(f_sdr)
    close = abs(mean_aso - mean_sdr) <= 0.05 * abs(mean_sdr)
    ok = bound_ok == n and close
    _report(11, ok, f"relaxation bound {bound_ok}/{n}, mean objective ASO "
                    f"{mean_aso:.4g} vs rounded relaxation {mean_sdr:.4g}")
