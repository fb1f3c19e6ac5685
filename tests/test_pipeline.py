import numpy as np
import pytest

from cfirs import channel as chan
from cfirs import fp_core, irs_opt, model, pipeline, tx_opt
from cfirs.pipeline import SchemeSpec

from conftest import build_instance, small_config


def test_scheme_labels():
    assert SchemeSpec(solver="aso").label == "ASO"
    assert SchemeSpec(solver="discrete", levels=4).label == "DISCRETE-M4"
    assert SchemeSpec(solver="aso", csi_error_rho=0.1).label == "ASO rho=0.1"
    assert SchemeSpec(solver="none", label="no reflectors").label == "no reflectors"


def test_scheme_rejects_bad_solver():
    with pytest.raises(ValueError):
        SchemeSpec(solver="genie")
    with pytest.raises(ValueError):
        SchemeSpec(solver="discrete", levels=1)
    with pytest.raises(ValueError):
        SchemeSpec(solver="aso", csi_error_rho=-0.1)


def test_single_user_single_bs_reaches_matched_filter_rate():
    # without reflectors and with one receive antenna, the optimum is maximum
    # ratio transmission at full power: rate = log(1 + p ||h||^2 / s2)
    cfg, ch, _, _, _ = build_instance(0, l=1, k=1, r=0, m_b=4, m_u=1)
    w, theta, trace = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="none"), np.random.default_rng(0)
    )
    h = ch.direct[0, 0][:, 0]
    expected = np.log(1 + cfg.p_max[0] * np.linalg.norm(h) ** 2 / cfg.sigma2)
    assert trace.final_sum_rate_true == pytest.approx(expected, rel=1e-6)


def test_random_scheme_skips_phase_step():
    cfg, ch, _, _, _ = build_instance(1)
    w, theta, trace = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="random"), np.random.default_rng(1)
    )
    assert all(s == 0 for s in trace.phase_sweeps)
    rates = np.asarray(trace.sum_rate)
    assert (np.diff(rates) >= -1e-9 * np.abs(rates[1:])).all()
    theta.validate()


def test_none_scheme_returns_empty_phases():
    cfg, ch, _, _, _ = build_instance(2)
    w, theta, trace = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="none"), np.random.default_rng(2)
    )
    assert theta.theta.size == 0
    assert trace.final_sum_rate_true == pytest.approx(
        model.sum_rate(model.stack(ch), w.w, None, cfg.sigma2), rel=1e-12
    )


def test_joint_optimize_deterministic():
    cfg, ch, _, _, _ = build_instance(3)
    runs = []
    for _ in range(2):
        w, theta, trace = pipeline.joint_optimize(
            ch, cfg, SchemeSpec(solver="aso"), np.random.default_rng(77)
        )
        runs.append((w.w.copy(), theta.theta.copy(), list(trace.sum_rate)))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]


@pytest.mark.parametrize("solver", ["aso", "qcr", "sdr", "discrete"])
def test_joint_optimize_monotone_and_feasible(solver):
    cfg, ch, _, _, _ = build_instance(4, r=2, n=4, n_h=2, n_v=2)
    scheme = SchemeSpec(solver=solver, levels=4 if solver == "discrete" else 0)
    w, theta, trace = pipeline.joint_optimize(ch, cfg, scheme, np.random.default_rng(4))
    rates = np.asarray(trace.sum_rate)
    assert (np.diff(rates) >= -1e-9 * np.abs(rates[1:])).all()
    w.validate(cfg.p_max)
    theta.validate(discrete_levels=4 if solver == "discrete" else 0)


def test_trace_bounded_by_capacity_estimate():
    cfg, ch, _, _, _ = build_instance(5)
    w, theta, trace = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="aso"), np.random.default_rng(5)
    )
    h = model.effective_channel(model.stack(ch), theta.theta)
    hs = h.transpose(1, 0, 2)
    hnorm2 = max(np.linalg.norm(hs[k], 2) ** 2 for k in range(cfg.k))
    bound = cfg.k * cfg.m_u * np.log(1 + sum(cfg.p_max) * hnorm2 / cfg.sigma2)
    assert max(trace.sum_rate) <= bound


def test_csi_error_optimizes_on_perturbed_channels():
    cfg, ch, _, _, _ = build_instance(7)
    clean = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="aso"), np.random.default_rng(9)
    )[2]
    noisy = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="aso", csi_error_rho=0.3), np.random.default_rng(9)
    )[2]
    # same generator stream: the only difference is the perturbation radius
    assert noisy.final_sum_rate_true <= clean.final_sum_rate_true + 1e-9


def test_monte_carlo_single_seed_matches_direct_run():
    cfg = small_config()
    geo = chan.default_geometry(cfg)
    scheme = SchemeSpec(solver="aso")
    rows = pipeline.monte_carlo(cfg, geo, [scheme], n_seeds=1, master_seed=5)
    assert len(rows) == 1
    channels = pipeline.realize_channels(cfg, geo, master_seed=5, seed_index=0)
    rng = np.random.default_rng(pipeline.scheme_seed_key(5, 0, scheme.label))
    _, _, trace = pipeline.joint_optimize(channels, cfg, scheme, rng)
    assert rows[0]["sum_rate_bits"] == pytest.approx(trace.final_sum_rate_true / np.log(2.0),
                                                     rel=1e-12)
    assert rows[0]["iterations"] == trace.iterations


def test_monte_carlo_rows_are_paired_by_seed():
    cfg = small_config()
    geo = chan.default_geometry(cfg)
    schemes = [SchemeSpec(solver="aso"), SchemeSpec(solver="random"), SchemeSpec(solver="none")]
    rows = pipeline.monte_carlo(cfg, geo, schemes, n_seeds=3, master_seed=1)
    assert len(rows) == 9
    seeds = {r["seed"] for r in rows}
    assert seeds == {0, 1, 2}
    for s in seeds:
        labels = [r["scheme"] for r in rows if r["seed"] == s]
        assert sorted(labels) == sorted(x.label for x in schemes)


def test_adding_scheme_leaves_other_draws_unchanged():
    cfg = small_config()
    geo = chan.default_geometry(cfg)
    base = [SchemeSpec(solver="aso")]
    more = [SchemeSpec(solver="random"), SchemeSpec(solver="aso")]
    rows_a = pipeline.monte_carlo(cfg, geo, base, n_seeds=2, master_seed=3)
    rows_b = pipeline.monte_carlo(cfg, geo, more, n_seeds=2, master_seed=3)
    vals_a = {(r["scheme"], r["seed"]): r["sum_rate_bits"] for r in rows_a}
    vals_b = {(r["scheme"], r["seed"]): r["sum_rate_bits"] for r in rows_b}
    for key, val in vals_a.items():
        assert vals_b[key] == pytest.approx(val, rel=1e-12)


def test_aggregate_mean_and_stderr():
    rows = [
        {"scheme": "A", "sum_rate_bits": 1.0},
        {"scheme": "A", "sum_rate_bits": 3.0},
        {"scheme": "B", "sum_rate_bits": 5.0},
    ]
    agg = pipeline.aggregate(rows)
    assert agg["A"]["mean"] == pytest.approx(2.0)
    assert agg["A"]["stderr"] == pytest.approx(np.std([1, 3], ddof=1) / np.sqrt(2))
    assert agg["B"]["count"] == 1
    assert agg["B"]["stderr"] == 0.0


# ---- one evaluation of each quantity per outer iteration ----

def _reference_once(channels, opt_channels, config, scheme, rng):
    """The outer loop as a sequence of per-quantity calls, each of which
    recomputes the link matrices (and the effective channel) from (W, theta)
    on its own: sinr, the MMSE filters, optimize_w, build_cmcqp and the phase step,
    effective_channel, sum_rate."""
    use_irs = scheme.solver != "none" and config.r > 0
    theta = pipeline._init_theta(config, rng) if use_irs else None
    has_phase_step = scheme.solver in ("aso", "qcr", "sdr", "discrete") and use_irs
    opt = model.stack(opt_channels)
    h = model.effective_channel(opt, theta)
    w = model.matched_filter_init(h, config.p_max)
    trace = pipeline.RunTrace()
    rate = model.sum_rate(opt, w, theta, config.sigma2)
    trace.sum_rate.append(rate)
    lam = None
    for it in range(1, config.max_outer + 1):
        u = model.sinr(h, w, config.sigma2)
        y = fp_core.mmse_filters(model.link_state(h, w, config.sigma2))
        aux = fp_core.AuxState(u=u, y=y)
        w, lam, winfo = tx_opt.optimize_w(h, aux, config, lam=lam, w_prev=w)
        sweeps = 0
        if has_phase_step:
            data = irs_opt.build_cmcqp(opt, w, aux)
            theta, sweeps = pipeline._phase_step(scheme, theta, data, config, rng)
            h = model.effective_channel(opt, theta)
        trace.dual_iterations.append(winfo["iterations"])
        trace.phase_sweeps.append(sweeps)
        new_rate = model.sum_rate(opt, w, theta, config.sigma2)
        trace.sum_rate.append(new_rate)
        trace.iterations = it
        if new_rate != 0 and abs(new_rate - rate) / abs(new_rate) < config.eps3:
            trace.converged = True
            break
        rate = new_rate
    trace.final_sum_rate_true = model.sum_rate(model.stack(channels), w, theta, config.sigma2)
    return w, theta, trace


def _reference_joint(channels, config, scheme, rng, n_starts=1):
    opt_channels = chan.apply_csi_error(channels, scheme.csi_error_rho, rng)
    best = None
    for _ in range(n_starts):
        w, theta, trace = _reference_once(channels, opt_channels, config, scheme, rng)
        if best is None or trace.sum_rate[-1] > best[2].sum_rate[-1]:
            best = (w, theta, trace)
    return best


_SMALL = dict(r=2, n=4, n_h=2, n_v=2)
_LOOP_CASES = {
    "aso": (SchemeSpec(solver="aso"), _SMALL, 1),
    "discrete": (SchemeSpec(solver="discrete", levels=4), _SMALL, 1),
    "qcr": (SchemeSpec(solver="qcr"), _SMALL, 1),
    "random": (SchemeSpec(solver="random"), _SMALL, 1),
    "none": (SchemeSpec(solver="none"), _SMALL, 1),
    "sdr-tiny": (SchemeSpec(solver="sdr"), dict(n=2, n_h=2, n_v=1, max_outer=4), 1),
    "aso-csi-error": (SchemeSpec(solver="aso", csi_error_rho=0.2), _SMALL, 1),
    "qcr-two-starts": (SchemeSpec(solver="qcr"), _SMALL, 2),
}


@pytest.mark.parametrize("case", sorted(_LOOP_CASES))
def test_loop_matches_per_quantity_reference(case):
    scheme, over, n_starts = _LOOP_CASES[case]
    cfg, ch, _, _, _ = build_instance(8, **over)
    w, theta, trace = pipeline.joint_optimize(
        ch, cfg, scheme, np.random.default_rng(8), n_starts=n_starts)
    ref_w, ref_theta, ref = _reference_joint(
        ch, cfg, scheme, np.random.default_rng(8), n_starts=n_starts)
    assert trace.iterations > 1
    for name in ("sum_rate", "dual_iterations", "phase_sweeps", "iterations",
                 "converged", "final_sum_rate_true"):
        assert getattr(trace, name) == getattr(ref, name), name
    np.testing.assert_array_equal(w.w, ref_w)
    ref_theta = ref_theta if ref_theta is not None else np.zeros(0, complex)
    np.testing.assert_array_equal(theta.theta, ref_theta)


@pytest.mark.parametrize("solver", ["aso", "qcr", "discrete", "random", "none"])
def test_loop_evaluates_channel_and_link_state_once(solver, monkeypatch):
    # Per start: the effective channel at the initial phases, after every
    # phase step and on the true channels at the end; the link state at the
    # start, after every iteration and for the final rate.
    events, starts = [], []
    real_channel, real_links = model.effective_channel, model.link_matrices
    real_step, real_once = pipeline._phase_step, pipeline._optimize_once

    def channel_spy(channels, theta):
        events.append(("channel", None if theta is None else np.array(theta)))
        return real_channel(channels, theta)

    def links_spy(h, w):
        events.append(("links", None))
        return real_links(h, w)

    def step_spy(scheme, theta, data, config, rng):
        events.append(("step", np.array(theta)))
        return real_step(scheme, theta, data, config, rng)

    def once_spy(*args):
        first = len(events)
        out = real_once(*args)
        starts.append((events[first:], out[2].iterations))
        return out

    monkeypatch.setattr(model, "effective_channel", channel_spy)
    monkeypatch.setattr(model, "link_matrices", links_spy)
    monkeypatch.setattr(pipeline, "_phase_step", step_spy)
    monkeypatch.setattr(pipeline, "_optimize_once", once_spy)
    cfg, ch, _, _, _ = build_instance(9, **_SMALL)
    scheme = SchemeSpec(solver=solver, levels=4 if solver == "discrete" else 0)
    pipeline.joint_optimize(ch, cfg, scheme, np.random.default_rng(9), n_starts=2)

    assert len(starts) == 2
    for calls, iterations in starts:
        kinds = [kind for kind, _ in calls]
        steps = kinds.count("step")
        assert steps == (iterations if solver in ("aso", "qcr", "discrete") else 0)
        assert kinds.count("channel") == steps + 2
        assert kinds.count("links") == iterations + 2
        last_theta = None
        for kind, theta in calls:
            if kind == "channel":
                last_theta = theta
            elif kind == "step":
                np.testing.assert_array_equal(last_theta, theta)
